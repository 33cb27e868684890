(** Chunked work-sharing across OCaml 5 domains.

    A tiny reusable pool for data-parallel kernels: the caller describes
    its work as [units] independent items (for the bit-sliced simulators a
    unit is one 64-pattern machine word, so chunks are word-aligned by
    construction), and {!run} partitions the index space into contiguous
    chunks that worker domains pull from a shared atomic cursor until the
    work is drained. Domains are spawned with stdlib [Domain.spawn] and
    joined before {!run} returns — no domain outlives the call, so the
    pool composes with the fork-based {!Supervisor} (never fork while
    domains are alive; here none ever are across a fork point).

    Telemetry recorded inside worker domains lands in their per-domain
    {!Telemetry} registries; the pool snapshots each one inside the
    worker and merges it into the caller's registry after join, so
    parallel kernels neither race on the tables nor lose counts.

    Work below [min_units_per_domain] per domain runs sequentially on the
    calling domain — spawning costs tens of microseconds, which would
    dominate a 512-pattern verification sweep. *)

val max_domains : int
(** Upper bound on worker domains per pool run (64). *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val set_default : int option -> unit
(** Override the process-wide default domain count used when {!run} gets
    no [?domains] ([None] restores auto detection). Set once from the CLI
    ([--domains N]) before any parallel work; forked workers inherit it. *)

val env_var : string
(** Name of the domain-count environment variable, ["CNTPOWER_DOMAINS"]. *)

val env_domains_checked : unit -> (int option, string) result
(** Validate the [CNTPOWER_DOMAINS] environment variable exactly like
    [--domains]: [Ok None] when unset, [Ok (Some n)] for an integer in
    [1, max_domains], and [Error msg] (naming the variable and the
    offending value) otherwise. The CLI calls this at startup and turns
    [Error] into a typed usage error instead of silently falling back. *)

val default_domains : unit -> int
(** The effective default: the {!set_default} override if any, else the
    [CNTPOWER_DOMAINS] environment variable (when it parses as an int in
    [1, max_domains] — garbage earns one stderr warning and is ignored,
    see {!env_domains_checked}), else {!recommended}. *)

type stats = {
  domains_used : int;  (** workers that actually ran (1 = sequential) *)
  chunks : int;  (** chunks the index space was split into *)
  units : int array;
      (** units processed per worker, indexed [0 .. domains_used - 1];
          worker 0 is the calling domain *)
  busy_s : float array;
      (** seconds each worker spent inside the chunk function, indexed
          like [units] *)
  wall_s : float;  (** wall time of the whole {!run} call *)
}

val parallel_speedup : stats -> float
(** Observed speedup of one run: the summed per-worker busy time over
    the run's wall time (Σ [busy_s] ÷ [wall_s]; 1 for a sequential run,
    up to [domains_used] when every worker was busy throughout). Needs no
    second, sequential run to compare against. *)

val run :
  ?domains:int ->
  ?min_units_per_domain:int ->
  units:int ->
  (worker:int -> lo:int -> len:int -> unit) ->
  stats
(** [run ~units f] calls [f ~worker ~lo ~len] over disjoint contiguous
    ranges covering exactly [0 .. units - 1]. [f] must be safe to call
    concurrently from different domains on disjoint ranges (the simulators
    write disjoint word slices of shared buffers). [worker] identifies the
    executing domain (stable within one run) for per-domain accounting.

    [?domains] caps the worker count (clamped to [1, max_domains]);
    default {!default_domains}. When [units / min_units_per_domain]
    (default 256) allows fewer domains than requested, the pool shrinks —
    down to a plain sequential loop on the calling domain for small work.

    An exception raised by any chunk is re-raised (with its backtrace)
    after all domains have joined and worker telemetry has been merged. *)
