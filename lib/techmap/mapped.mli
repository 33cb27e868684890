(** Technology-mapped netlists: instances of library gates wired by nets.

    Net 0.. are created in topological order: primary-input nets first, then
    one net per cell output. This is the form on which area, delay and the
    paper's Table 1 power figures are computed.

    {b Net literals.} A netlist covers a subject AIG, and every net carries
    the function of one literal of it: primary-input net [i] is input
    literal [i] of {!Aigs.Aig.input_lits}, a rail-tied net is literal 0 or
    1, and a cell output is the (node, phase) pair the mapper realized
    there. So per-net switching counts are read off one sweep of the
    subject ({!Activity}) by literal, shared by every family mapped from
    the same AIG. *)

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
  subject : Aigs.Aig.t;  (** the AIG this netlist covers *)
  net_lits : Aigs.Aig.lit array;
      (** per net: the subject literal whose function the net carries *)
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
(** Per-net values given one stimulus vector per primary input. Runs a
    lowered cube kernel over {!Sweep.run}, then copies every net's full
    vector out, so memory grows with the pattern count; use it where the
    values themselves are needed (co-simulation, sequential stepping).
    The pattern axis shards across domains ({!Runtime.Dpool},
    word-aligned chunks); results are bit-identical for any [?domains]
    (default {!Runtime.Dpool.default_domains}). Switching counts for
    power estimation come from {!Activity.sweep} of the subject instead. *)

val check :
  ?domains:int -> t -> Nets.Netlist.t -> patterns:int -> seed:int64 -> bool
(** Random co-simulation of the mapped netlist against a reference netlist
    with matching PI/PO names: true when all sampled outputs agree. The
    verdict is deterministic in [seed] for any [?domains]. *)

val pp_stats : Format.formatter -> t -> unit
