(** Cut-based technology mapping (the "map" half of our ABC substitute).

    Covers a subject AIG with library gates: K-feasible cuts are enumerated
    per node, each cut function is Boolean-matched against the library
    ({!Matchlib}), and dynamic programming selects per node and output
    polarity the match with the best objective. Phase conversions become
    explicit inverter cells. *)

type objective = Delay | Area
(** [Delay]: minimize arrival time, tie-break on area flow — the paper's
    flow maps for delay. [Area]: minimize area flow subject to no arrival
    constraint (used by the area-recovery ablation). *)

type subject
(** The family-independent half of mapping one AIG: its K-feasible cuts
    ({!Aigs.Cut.enumerate}) and, per non-trivial cut whose function
    depends on at least one and at most {!Matchlib.max_pins} leaves, the
    support leaves and the cut function shrunk onto them. Build it once
    and map it with every family. *)

val subject : ?k:int -> ?max_cuts:int -> Aigs.Aig.t -> subject
(** Cuts have at most [k] (default 6) leaves, at most [max_cuts]
    (default 10) per node. The AIG must not change while the subject is
    in use. Recorded as the [techmap.subject] span.
    @raise Invalid_argument if [k < 1] or [max_cuts < 1]. *)

val map_subject : ?objective:objective -> Matchlib.t -> subject -> Mapped.t
(** The per-family half: look every cut function up in the family's
    match tables, select per node and phase, and extract the netlist
    (span [techmap.map]). [map_subject ml (subject aig)] is [map ml aig]
    cell for cell. Raises like {!map}. *)

val map :
  ?objective:objective ->
  ?k:int ->
  ?max_cuts:int ->
  Matchlib.t ->
  Aigs.Aig.t ->
  Mapped.t
(** Map the AIG: [map ?k ?max_cuts ml aig] is
    [map_subject ml (subject ?k ?max_cuts aig)]. Raises [Runtime.Cnt_error.Error] (code [Unmapped_node])
    if some cut function has no match and no decomposition applies (cannot
    happen when the library contains INV and NAND2/NOR2, since every AND
    node has its 2-leaf cut). Cuts come from {!Aigs.Cut.enumerate} with
    [k] (default 6) and [max_cuts] (default 10), which must be at least 1.
    @raise Invalid_argument otherwise. *)

val map_checked :
  ?objective:objective ->
  ?k:int ->
  ?max_cuts:int ->
  Matchlib.t ->
  Aigs.Aig.t ->
  (Mapped.t, Runtime.Cnt_error.t) result
(** Hardened boundary around {!map}: every failure, including wrapped
    unexpected exceptions, is returned as a typed [techmap/*] error. *)
