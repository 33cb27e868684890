(** Netlist-level power estimation (Section 4 of the paper).

    The subject AIG of a mapped netlist is simulated with uniform random
    patterns (the paper uses 640 K); every net carries the function of one
    AIG literal, so its counts are read by literal, and one sweep serves
    every family mapped from that AIG. Per-net toggle rates drive the
    dynamic power, per-net
    signal probabilities drive the expected static and gate-tunneling
    leakage of every cell through the characterized per-input-vector
    currents (input independence is assumed when weighting vectors, a
    standard first-order approximation). *)

type report = {
  gates : int;
  area : float;
  delay : float;  (** s *)
  dynamic : float;  (** W *)
  short_circuit : float;
  static : float;
  gate_leak : float;
  total : float;
  edp : float;  (** J·s, (P_T / f) · delay *)
}

val default_patterns : int
(** 640_000, as in the paper. *)

val simulate :
  ?domains:int -> ?patterns:int -> ?seed:int64 -> Aigs.Aig.t -> Activity.t
(** The family-independent half of the estimate: one {!Activity.sweep} of
    a subject AIG over [patterns] (default {!default_patterns}) uniform
    random patterns from [seed] (default [42L]), recorded as the
    [estimate.simulate] span with the [estimate.patterns_simulated]
    counter and the [estimate.patterns_per_s] distribution. Every
    netlist mapped from that AIG reads its per-net counts from the result
    by net literal ({!Mapped.t}[.net_lits]), so a circuit mapped with
    several families is swept once.
    @raise Invalid_argument if [patterns < 1]. *)

val of_activity : ?wire_cap_per_fanout:float -> Activity.t -> Mapped.t -> report
(** The per-family half: the report of a netlist from the counts of its
    subject (span [techmap.estimate]). Net [n]'s toggle rate is
    [Activity.toggles act net_lits.(n) / (patterns - 1)] (0 for one
    pattern) and its 1-probability [Activity.ones act net_lits.(n) /
    patterns]. [of_activity (simulate ~patterns ~seed m.subject) m] is
    [run ~patterns ~seed m] float for float.
    @raise Invalid_argument if [act] is not a sweep of [m]'s subject AIG
    (physically). *)

val run :
  ?domains:int ->
  ?patterns:int ->
  ?seed:int64 ->
  ?wire_cap_per_fanout:float ->
  Mapped.t ->
  report
(** {!simulate} of the netlist's subject AIG, then {!of_activity}.
    [wire_cap_per_fanout] adds lumped interconnect capacitance per driven
    pin (default 0, the paper's assumption). The Monte-Carlo sweep
    shards across [?domains] (default {!Runtime.Dpool.default_domains}),
    reported figures are bit-identical for any domain count, and memory
    is bounded by the AIG size, not [patterns] — one off-heap
    4096-pattern scratch of 512 B per AIG node per domain plus a few
    integers per node, so the major heap does not grow with the pattern
    count.
    @raise Invalid_argument if [patterns < 1]. *)

val static_components : Mapped.t -> probs:(int -> float) -> float * float
(** [(static, gate_leak)] powers in W of every cell, weighting each cell's
    characterized per-input-vector currents by the given per-net
    1-probabilities (independence assumption). Shared by the combinational
    and the sequential estimators. *)

val pp_report : Format.formatter -> report -> unit

val pp_row : Format.formatter -> string * report -> unit
(** One Table-1-style row: name, gates, delay (ps), P_D, P_S, P_T (uW),
    EDP (1e-24 J·s). *)

val run_blif :
  ?domains:int ->
  ?patterns:int ->
  ?seed:int64 ->
  lib:Cell.Genlib.t ->
  string ->
  (report, Runtime.Cnt_error.t) result
(** Checked end-to-end pipeline over BLIF {e text}: parse, well-formedness
    check ({!Nets.Check.check}), AIG construction, [resyn2rs], matchlib
    build, mapping, then {!run}. Used by [cntpower serve],
    whose requests carry the netlist inline. Every failure — parse error,
    combinational loop, unmapped node, non-finite power — is a typed
    error, never an exception. *)
