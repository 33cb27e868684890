(** AIG optimization passes (our substitute for ABC's [resyn2rs] pieces).

    Every pass is functional: it analyzes the input AIG and rebuilds a fresh
    structurally hashed AIG, so no in-place surgery is needed. Passes never
    change the circuit function (checked by the test suite with random and
    exhaustive co-simulation). *)

val balance : Aig.t -> Aig.t
(** Delay-driven balancing: maximal single-fanout AND trees are rebuilt as
    minimum-depth trees (lowest-level operands combined first). *)

val rewrite : ?zero_cost:bool -> ?k:int -> ?max_cuts:int -> Aig.t -> Aig.t
(** Cut-based rewriting: for every node, enumerate [k]-feasible cuts
    (default [k = 4]), re-express the cut function as a factored form and
    accept the replacement when it saves AIG nodes compared to the
    maximum-fanout-free cone of the cut ([zero_cost] also accepts
    size-neutral replacements, which perturbs the structure like ABC's
    [rw -z]). Per node the cut with the largest gain wins, the first one on
    ties.

    The result does not depend on two shortcuts. A cut whose cone saves no
    more nodes than the best gain found so far for the node is skipped
    before its function is computed: its cost is never negative, so it
    cannot win. And the factored form and cost of each distinct cut
    function are computed once per pass, in a table that lives for that
    call only. *)

val refactor : ?k:int -> ?max_cuts:int -> Aig.t -> Aig.t
(** Same engine with larger cuts (default [k = 8]), corresponding to ABC's
    [refactor]. For both passes [k] and [max_cuts] go to
    {!Cut.enumerate}, which raises [Invalid_argument] if either is below
    1. *)

val resyn2rs : Aig.t -> Aig.t
(** Optimization script modeled after ABC's [resyn2rs]: interleaved balance,
    rewrite and refactor passes, iterated while the node count improves. *)

val node_count_script : Aig.t -> int * int
(** [(ands, depth)] after {!resyn2rs}; convenience for reporting. *)
