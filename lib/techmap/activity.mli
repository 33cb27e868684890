(** Switching activity of a subject AIG under uniform random stimulus.

    Every net of a netlist that {!Mapper} derives from an AIG carries the
    function of one AIG literal ({!Mapped.t}[.net_lits]), so one sweep of
    the AIG gives the counts of every family's mapped netlist: each family
    reads its nets' counts by literal. *)

type t

val sweep : ?domains:int -> ?seed:int64 -> Aigs.Aig.t -> patterns:int -> t
(** Streaming sweep of every node of the AIG over [patterns] uniform
    random patterns: input [i] (node [i + 1], the [i]-th entry of
    {!Aigs.Aig.input_lits}) receives vector [i] of
    [Nets.Sim.random_stimulus ~seed] (default [42L]), and each AND node is
    one AND of its two fanin rows, each possibly complemented. Runs on
    {!Sweep.counts}: fixed 4096-pattern chunks in an off-heap scratch of
    one 512 B row per node per domain, integer counts identical for any
    [?domains] (default {!Runtime.Dpool.default_domains}). Records the
    telemetry counter [aig.sim.node_words] (AND nodes × words swept).

    @raise Invalid_argument if [patterns < 1]. *)

val subject : t -> Aigs.Aig.t
(** The AIG that was swept. *)

val patterns : t -> int

val ones : t -> Aigs.Aig.lit -> int
(** Patterns on which the literal is 1: the node's count, or
    [patterns - ] that count when the literal is complemented. Literal 0
    (constant false) reads 0 and literal 1 reads [patterns]. *)

val toggles : t -> Aigs.Aig.lit -> int
(** Consecutive pattern pairs on which the literal changes; equal for a
    literal and its complement. *)
