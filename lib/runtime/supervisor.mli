(** Process-isolated execution of experiment workloads.

    Each job runs in a forked worker process; the supervisor reads the
    worker's marshalled result from a pipe under a wall-clock watchdog.
    A worker that outlives its watchdog is SIGKILLed and reported as a
    {!Cnt_error.Worker_timeout}; a worker that dies on a signal (OOM
    killer, segfault, external [kill]) or exits nonzero is reported as a
    {!Cnt_error.Worker_killed}. Either class of infrastructure failure is
    retried under a bounded policy, with the retry flagged as *degraded*
    so the job can shed load (the harness halves the pattern count).

    When the {!Journal} is enabled the supervisor narrates itself:
    [worker_spawned] / [worker_exited] / [worker_retry] /
    [worker_timeout] / [worker_killed] events from the parent, and the
    worker's own captured events (it {!Journal.begin_capture}s right
    after the fork) ride the result pipe back next to the result and are
    appended to the on-disk journal with their worker-PID provenance.

    On platforms without [fork] (Windows) jobs run in-process: results
    and typed errors are identical but the watchdog cannot interrupt a
    wedged job and worker death takes the supervisor with it. *)

type policy = {
  timeout_s : float;  (** wall-clock budget per attempt; [<= 0.] disables *)
  retries : int;  (** extra attempts after an infrastructure failure *)
  degrade : bool;  (** run retries with [~degraded:true] *)
}

val default_policy : policy
(** [{ timeout_s = 900.; retries = 1; degrade = true }] *)

type 'a outcome = {
  value : ('a, Cnt_error.t) result;
  attempts : int;  (** total attempts made, >= 1 *)
  degraded : bool;  (** the returned value came from a degraded retry *)
  wall_time : float;  (** seconds across all attempts *)
}

val can_fork : bool
(** [true] on Unix: workers are genuinely process-isolated. *)

val run :
  ?policy:policy -> name:string -> (degraded:bool -> 'a) -> 'a outcome
(** [run ~name f] executes [f ~degraded:false] in a forked worker and
    returns its result. The worker's value (or typed error) is marshalled
    back to the supervisor, so ['a] must not contain closures. Any
    exception escaping [f] becomes a typed error via
    {!Cnt_error.protect}; it is NOT retried — only [Worker_timeout] and
    [Worker_killed] are, since a deterministic in-job failure would just
    fail again.

    Once this process has spawned a domain ({!Dpool.has_spawned}),
    forking is refused: the outcome is a typed [Unsupported] error and
    no worker or pipe is created. *)

val retryable : Cnt_error.t -> bool
(** [true] exactly for the [Worker_timeout] / [Worker_killed] codes. *)

(** {2 Non-blocking workers}

    {!run} is synchronous: one worker, watched to completion. The
    estimation daemon ({!Server}) instead multiplexes a bounded pool of
    concurrent workers from a single [select] loop, so it needs the fork /
    poll / reap steps exposed separately. The child-side contract is the
    same as {!run}'s (typed errors, captured journal events riding the
    result pipe), plus an optional per-worker telemetry profile: with
    [?telemetry_prefix] set and {!Telemetry.enabled}, the worker resets
    its registry on entry, snapshots on exit, and the parent merges the
    snapshot under that span prefix when the result is reaped. *)

type 'a async
(** A forked worker whose result pipe is polled rather than awaited. *)

val spawn_async :
  ?telemetry_prefix:string list ->
  ?close_in_child:Unix.file_descr list ->
  name:string ->
  (unit -> 'a) ->
  'a async
(** Fork a worker running [f ()]. [close_in_child] lists descriptors the
    child must not keep open (the server's listening socket and client
    connections — a long-running worker holding them would defeat EOF
    detection and drain). Emits [worker_spawned] when the journal is on.
    Raises {!Cnt_error.Error} ([Unsupported]) without opening a pipe once
    this process has spawned a domain, like {!run}. *)

val async_pid : 'a async -> int

val async_fd : 'a async -> Unix.file_descr
(** The parent's (non-blocking) read end of the result pipe; put it in
    your [select] read set and call {!async_step} when it fires. *)

val async_step :
  'a async -> [ `Pending | `Done of ('a, Cnt_error.t) result ]
(** Drain whatever the pipe currently holds. [`Done] exactly once, at
    EOF: the worker is reaped and classified like {!run} does — clean
    exit with a payload yields its result (journal events appended,
    telemetry merged), anything else a typed [Worker_killed]. Calling
    again after [`Done] returns a typed [Internal] error. *)

val async_abort : 'a async -> unit
(** SIGKILL the worker, reap it, close the pipe. No result, no journal
    event — the caller narrates why (deadline, drain timeout). Safe to
    call after [`Done] (no-op). *)
