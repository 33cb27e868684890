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

val map :
  ?objective:objective ->
  ?k:int ->
  ?max_cuts:int ->
  Matchlib.t ->
  Aigs.Aig.t ->
  Mapped.t
(** Map the AIG. Raises [Runtime.Cnt_error.Error] (code [Unmapped_node])
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
