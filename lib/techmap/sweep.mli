(** The bit-parallel sweep driver shared by the simulators of this library:
    {!Mapped.simulate} (values of a mapped netlist) and {!Activity.sweep}
    (switching counts of a subject AIG).

    A sweep evaluates a circuit on the pattern axis in chunks of
    [chunk_words] 64-pattern words. Each row of a worker's off-heap
    scratch holds one signal's values on the current chunk; the caller's
    evaluator fills every non-input row from the input rows. The pattern
    axis shards across domains ({!Runtime.Dpool}, word-aligned ranges),
    and every result is identical for any domain count. *)

type rows = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** A worker's scratch: row [r] occupies words
    [r * chunk_words .. (r + 1) * chunk_words - 1]. *)

val chunk_words : int
(** 64 words = 4096 patterns per chunk. *)

val scratch : rows:int -> rows
(** A zeroed scratch of [rows] rows. *)

val iter_chunks : lo:int -> len:int -> (w0:int -> words:int -> unit) -> unit
(** Calls [f ~w0 ~words] on consecutive chunks covering the words
    [lo, lo + len). *)

val run :
  ?domains:int ->
  npat:int ->
  nwords:int ->
  work:string * int ->
  init:(unit -> 'st) ->
  ('st -> lo:int -> len:int -> unit) ->
  'st list
(** [run ~npat ~nwords ~work:(counter, per_word) ~init piece] shards
    [nwords] words of the pattern axis across domains. Each worker builds
    its state with [init] once, on the first range it pulls, and runs
    [piece st ~lo ~len] on every range; the per-worker states come back
    for the caller to reduce. With telemetry on it records [counter]
    ([per_word] per word swept), [sim.d<k>.patterns_simulated] per worker
    (out of [npat]), [sim.domains] and, on more than one domain,
    [sim.parallel_speedup]. *)

val counts :
  ?domains:int ->
  seed:int64 ->
  patterns:int ->
  rows:int ->
  inputs:int array ->
  eval:(rows -> words:int -> unit) ->
  work:string * int ->
  unit ->
  int array * int array
(** Streaming switching-activity sweep over [patterns] uniform random
    patterns: [(ones, toggles)], per row, the patterns on which the row is
    1 and the consecutive pattern pairs on which it changes. Input
    [inputs.(i)]'s stimulus is bit-identical to vector [i] of
    [Nets.Sim.random_stimulus ~seed] (each chunk's words come from
    {!Logic.Prng.jump}); [eval buf ~words] must compute every other row
    from the input rows on the first [words] columns. A range that starts
    mid-sweep first evaluates the word before it (a one-word halo), tail
    bits past [patterns] and the first pattern's missing predecessor are
    masked, and the counts are integers summed after the join, so they
    are identical for any [?domains]. Memory is [rows] × 512 B of scratch
    plus three integers per row, per domain. [patterns] must be at
    least 1. *)
