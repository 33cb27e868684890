(** Technology-mapped netlists: instances of library gates wired by nets.

    Net 0.. are created in topological order: primary-input nets first, then
    one net per cell output. This is the form on which area, delay and the
    paper's Table 1 power figures are computed. *)

type cell = {
  gate : Cell.Genlib.gate;
  inputs : int array;  (** driving nets, one per gate pin *)
  output : int;
}

type t = {
  lib : Cell.Genlib.t;
  num_nets : int;
  pi_nets : (string * int) array;
  po_nets : (string * int) array;
  const_nets : (int * bool) array;
      (** rail-tied nets (constant primary outputs after optimization) *)
  cells : cell array;  (** topological order *)
}

val num_gates : t -> int
val area : t -> float

val arrival_times : t -> float array
(** Per-net arrival time (PIs at 0). *)

val delay : t -> float
(** Critical-path delay to the latest primary output, seconds. *)

val net_loads : ?wire_cap_per_fanout:float -> t -> float array
(** Per-net capacitive load: the driver's intrinsic output capacitance plus
    the input capacitance of every driven pin; primary outputs additionally
    drive one inverter-equivalent load. [wire_cap_per_fanout] adds a lumped
    wire capacitance per driven pin (0 by default — the paper ignores
    interconnect; ablation A6 measures the sensitivity of its conclusions
    to that simplification). *)

val gate_histogram : t -> (string * int) list
(** Cell usage count by gate name, descending. *)

val simulate : ?domains:int -> t -> Logic.Bitvec.t array -> Logic.Bitvec.t array
(** Per-net values given one stimulus vector per primary input. Runs the
    same lowered cube kernel as {!activity}, then copies every net's full
    vector out, so memory grows with the pattern count; use it where the
    values themselves are needed (co-simulation, sequential stepping).
    The pattern axis shards across domains ({!Runtime.Dpool},
    word-aligned chunks); results are bit-identical for any [?domains]
    (default {!Runtime.Dpool.default_domains}). *)

type activity = {
  ones : int array;  (** per net: patterns on which the net is 1 *)
  toggles : int array;
      (** per net: consecutive pattern pairs on which the net changes *)
}

val activity : ?domains:int -> ?seed:int64 -> t -> patterns:int -> activity
(** Streaming switching-activity sweep over [patterns] uniform random
    patterns: the stimulus is bit-identical to
    [Nets.Sim.random_stimulus ~seed] (default [42L]), and [ones.(n)] and
    [toggles.(n)] equal [Bitvec.popcount] and [Bitvec.transitions] of net
    [n]'s vector under {!simulate}. No vector is materialized: each
    domain evaluates fixed 4096-pattern chunks in an off-heap scratch of
    [num_nets] × 512 B, generates each chunk's stimulus with
    {!Logic.Prng.jump}, and keeps integer counts, so memory is bounded by
    the netlist size alone and the counts are identical for any
    [?domains]. *)

val check :
  ?domains:int -> t -> Nets.Netlist.t -> patterns:int -> seed:int64 -> bool
(** Random co-simulation of the mapped netlist against a reference netlist
    with matching PI/PO names: true when all sampled outputs agree. The
    verdict is deterministic in [seed] for any [?domains]. *)

val pp_stats : Format.formatter -> t -> unit
