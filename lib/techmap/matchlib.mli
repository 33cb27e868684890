(** Boolean match tables for technology mapping.

    Every library gate function is expanded over all input permutations and
    input polarities, on one-word truth tables, skipping bindings whose
    function the gate already produced. The resulting truth tables are
    hashed so that a cut function found during mapping resolves to the
    gates that realize it (and how the cut leaves bind to gate pins) in
    O(1). Gates with more than
    {!max_pins} pins are excluded from matching (none exist in the shipped
    libraries). *)

type candidate = {
  gate : Cell.Genlib.gate;
  perm : int array;  (** pin [j] of the gate connects to leaf [perm.(j)] *)
  inv_mask : int;  (** bit [j]: pin [j] takes the complemented leaf value *)
}

type t

val max_pins : int
(** 6: the largest supported cut/gate size. *)

val build : ?cache:bool -> Cell.Genlib.t -> t
(** Precompute the match tables for a library. The library must contain an
    inverter (cell "INV"). Building is cheap (about 10 ms for the
    6-pin generalized CNTFET library, under a millisecond for the others),
    so nothing is persisted.

    [?cache] is accepted and ignored, because [perfbench/probe.ml], which
    is frozen, passes [~cache:false]. No other caller passes it. It is
    removed with the next change to the benchmark. *)

val library : t -> Cell.Genlib.t
val inverter : t -> Cell.Genlib.gate

val lookup : t -> Logic.Truthtable.t -> candidate list
(** Candidates realizing exactly the given function (over its [nvars]
    variables, all in the support). The list is sorted by ascending area and
    always contains the fastest candidate. *)

val size : t -> int
(** Total number of table entries (for reporting). *)
