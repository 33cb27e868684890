module E = Cnt_error

type policy = { timeout_s : float; retries : int; degrade : bool }

let default_policy = { timeout_s = 900.0; retries = 1; degrade = true }

type 'a outcome = {
  value : ('a, E.t) result;
  attempts : int;
  degraded : bool;
  wall_time : float;
}

let can_fork = not Sys.win32

let retryable (e : E.t) =
  match e.E.code with E.Worker_timeout | E.Worker_killed -> true | _ -> false

(* Checked before [Unix.pipe], so a refused fork leaks no descriptor. *)
let fork_refused ~name =
  if Dpool.has_spawned () then
    Some
      (E.make
         ~context:[ ("worker", name) ]
         E.Experiment E.Unsupported
         "cannot fork a worker after this process spawned a domain")
  else None

(* The worker writes [Marshal.to_bytes result] on this pipe and exits 0.
   Anything else — truncated payload, nonzero exit, signal death — is an
   infrastructure failure, typed below. *)

let flush_all_output () =
  Format.pp_print_flush Format.std_formatter ();
  Format.pp_print_flush Format.err_formatter ();
  flush stdout;
  flush stderr

let rec waitpid_retry pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry pid

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigbus then "SIGBUS"
  else string_of_int s

let worker_ctx ~name pairs = ("worker", name) :: pairs

(* Read the pipe to EOF under the deadline. The payload is small (scalars
   plus a possible error), far below PIPE_BUF, so the worker never blocks
   on the write; the select loop exists purely to enforce the watchdog
   while the worker computes. *)
let read_until_eof ~deadline fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  let rec loop () =
    let budget =
      match deadline with
      | None -> 0.25
      | Some d -> d -. Unix.gettimeofday ()
    in
    if budget <= 0.0 then `Timeout
    else
      match Unix.select [ fd ] [] [] (Float.min budget 0.25) with
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | 0 -> `Eof (Buffer.to_bytes buf)
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ()

(* Worker journal events ride the result pipe next to the result itself
   (the same transport as worker telemetry profiles): the worker captures
   them in memory and the parent appends them to the on-disk journal. *)
let run_forked ~timeout_s ~name ~degraded f =
  flush_all_output ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      (* Worker. Never let anything escape: compute, flush the inherited
         stdio so experiment output lands before the parent resumes, ship
         the result, and _exit without running parent atexit handlers. *)
      Unix.close rd;
      Journal.begin_capture ();
      (* The trace context rode the fork in process memory; derive a child
         span so the worker's events link back to the spawning request. *)
      Tracectx.set (Option.map Tracectx.child (Tracectx.current ()));
      let result = E.protect ~stage:E.Experiment (fun () -> f ~degraded) in
      let events = Journal.end_capture () in
      flush_all_output ();
      (try
         let payload =
           Marshal.to_bytes
             ((result, events) : (_, E.t) result * Journal.event list)
             []
         in
         let oc = Unix.out_channel_of_descr wr in
         output_bytes oc payload;
         flush oc
       with _ -> ());
      Unix._exit 0
  | pid -> (
      Unix.close wr;
      if Journal.enabled () then
        Journal.emit ~level:Debug Journal.Worker_spawned
          [
            ("worker", name);
            ("worker_pid", string_of_int pid);
            ("timeout_s", Printf.sprintf "%.1f" timeout_s);
            ("degraded", string_of_bool degraded);
          ];
      let deadline =
        if timeout_s > 0.0 then Some (Unix.gettimeofday () +. timeout_s)
        else None
      in
      let read_result = read_until_eof ~deadline rd in
      Unix.close rd;
      match read_result with
      | `Timeout ->
          Unix.kill pid Sys.sigkill;
          ignore (waitpid_retry pid);
          if Journal.enabled () then
            Journal.emit ~level:Warn Journal.Worker_timeout
              [
                ("worker", name);
                ("worker_pid", string_of_int pid);
                ("timeout_s", Printf.sprintf "%.1f" timeout_s);
              ];
          Result.Error
            (E.makef
               ~context:
                 (worker_ctx ~name
                    [ ("timeout_s", Printf.sprintf "%.1f" timeout_s) ])
               E.Experiment E.Worker_timeout
               "worker exceeded its %.1fs wall-clock watchdog and was killed"
               timeout_s)
      | `Eof payload -> (
          let killed detail =
            if Journal.enabled () then
              Journal.emit ~level:Warn Journal.Worker_killed
                (("worker", name)
                :: ("worker_pid", string_of_int pid)
                :: detail)
          in
          match waitpid_retry pid with
          | Unix.WEXITED 0 -> (
              match
                (Marshal.from_bytes payload 0
                  : (_, E.t) result * Journal.event list)
              with
              | result, events ->
                  Journal.append_events events;
                  if Journal.enabled () then
                    Journal.emit ~level:Debug Journal.Worker_exited
                      [
                        ("worker", name); ("worker_pid", string_of_int pid);
                      ];
                  result
              | exception _ ->
                  killed [ ("exit", "0") ];
                  Result.Error
                    (E.make
                       ~context:(worker_ctx ~name [])
                       E.Experiment E.Internal
                       "worker exited cleanly but returned no result"))
          | Unix.WEXITED code ->
              killed [ ("exit", string_of_int code) ];
              Result.Error
                (E.makef
                   ~context:
                     (worker_ctx ~name [ ("exit", string_of_int code) ])
                   E.Experiment E.Worker_killed "worker exited with code %d"
                   code)
          | Unix.WSIGNALED s | Unix.WSTOPPED s ->
              killed [ ("signal", signal_name s) ];
              Result.Error
                (E.makef
                   ~context:(worker_ctx ~name [ ("signal", signal_name s) ])
                   E.Experiment E.Worker_killed "worker killed by signal %s"
                   (signal_name s))))

(* ------------------------------------------------------------------ *)
(* Non-blocking workers: the server's event loop multiplexes many of
   these at once, polling each result pipe as select reports it readable
   and killing overdue workers itself. The child-side contract matches
   run_forked, with two additions: the payload carries an optional
   telemetry profile (the worker resets its registry on entry and
   snapshots on exit, so per-request profiles merge cleanly under a
   caller-chosen span prefix), and the child closes caller-supplied fds
   (listening sockets, peer connections) it must not keep alive. *)

type 'a async = {
  a_pid : int;
  a_fd : Unix.file_descr;
  a_name : string;
  a_buf : Buffer.t;
  a_telemetry_prefix : string list option;
  mutable a_reaped : bool;
}

let spawn_async ?telemetry_prefix ?(close_in_child = []) ~name f =
  Option.iter E.raise_error (fork_refused ~name);
  flush_all_output ();
  let rd, wr = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        close_in_child;
      Journal.begin_capture ();
      Tracectx.set (Option.map Tracectx.child (Tracectx.current ()));
      let profiled = telemetry_prefix <> None && Telemetry.enabled () in
      if profiled then Telemetry.reset ();
      let result = E.protect ~stage:E.Experiment f in
      let profile = if profiled then Some (Telemetry.snapshot ()) else None in
      let events = Journal.end_capture () in
      flush_all_output ();
      (try
         let payload =
           Marshal.to_bytes
             ((result, events, profile)
               : (_, E.t) result * Journal.event list * Telemetry.profile option)
             []
         in
         let oc = Unix.out_channel_of_descr wr in
         output_bytes oc payload;
         flush oc
       with _ -> ());
      Unix._exit 0
  | pid ->
      Unix.close wr;
      Unix.set_nonblock rd;
      if Journal.enabled () then
        Journal.emit ~level:Debug Journal.Worker_spawned
          [ ("worker", name); ("worker_pid", string_of_int pid) ];
      {
        a_pid = pid;
        a_fd = rd;
        a_name = name;
        a_buf = Buffer.create 256;
        a_telemetry_prefix = telemetry_prefix;
        a_reaped = false;
      }

let async_pid a = a.a_pid
let async_fd a = a.a_fd

(* Classify a finished worker exactly like run_forked does, merging the
   shipped journal events and telemetry profile on the clean path. *)
let async_finish a =
  a.a_reaped <- true;
  (try Unix.close a.a_fd with Unix.Unix_error _ -> ());
  let name = a.a_name in
  let pid = a.a_pid in
  let killed detail =
    if Journal.enabled () then
      Journal.emit ~level:Warn Journal.Worker_killed
        (("worker", name) :: ("worker_pid", string_of_int pid) :: detail)
  in
  match waitpid_retry pid with
  | Unix.WEXITED 0 -> (
      match
        (Marshal.from_bytes (Buffer.to_bytes a.a_buf) 0
          : (_, E.t) result * Journal.event list * Telemetry.profile option)
      with
      | result, events, profile ->
          Journal.append_events events;
          (match (profile, a.a_telemetry_prefix) with
          | Some p, Some prefix -> Telemetry.merge ~prefix p
          | _ -> ());
          if Journal.enabled () then
            Journal.emit ~level:Debug Journal.Worker_exited
              [ ("worker", name); ("worker_pid", string_of_int pid) ];
          result
      | exception _ ->
          killed [ ("exit", "0") ];
          Result.Error
            (E.make
               ~context:(worker_ctx ~name [])
               E.Experiment E.Internal
               "worker exited cleanly but returned no result"))
  | Unix.WEXITED code ->
      killed [ ("exit", string_of_int code) ];
      Result.Error
        (E.makef
           ~context:(worker_ctx ~name [ ("exit", string_of_int code) ])
           E.Experiment E.Worker_killed "worker exited with code %d" code)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      killed [ ("signal", signal_name s) ];
      Result.Error
        (E.makef
           ~context:(worker_ctx ~name [ ("signal", signal_name s) ])
           E.Experiment E.Worker_killed "worker killed by signal %s"
           (signal_name s))

let async_step a =
  if a.a_reaped then
    `Done
      (Result.Error
         (E.make
            ~context:(worker_ctx ~name:a.a_name [])
            E.Experiment E.Internal "worker result consumed twice"))
  else
    let chunk = Bytes.create 4096 in
    let rec drain () =
      match Unix.read a.a_fd chunk 0 (Bytes.length chunk) with
      | 0 -> `Done (async_finish a)
      | n ->
          Buffer.add_subbytes a.a_buf chunk 0 n;
          drain ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          `Pending
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
      | exception Unix.Unix_error _ -> `Done (async_finish a)
    in
    drain ()

let async_abort a =
  if not a.a_reaped then begin
    a.a_reaped <- true;
    (try Unix.close a.a_fd with Unix.Unix_error _ -> ());
    (try Unix.kill a.a_pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (waitpid_retry a.a_pid)
  end

let run_inprocess ~degraded f =
  E.protect ~stage:E.Experiment (fun () -> f ~degraded)

let run ?(policy = default_policy) ~name f =
  let t0 = Unix.gettimeofday () in
  let attempt ~degraded =
    if not can_fork then run_inprocess ~degraded f
    else
      match fork_refused ~name with
      | Some e -> Result.Error e
      | None -> run_forked ~timeout_s:policy.timeout_s ~name ~degraded f
  in
  let rec go n =
    let degraded = policy.degrade && n > 1 in
    Telemetry.count "supervisor.attempts" 1;
    match attempt ~degraded with
    | Ok v ->
        {
          value = Ok v;
          attempts = n;
          degraded;
          wall_time = Unix.gettimeofday () -. t0;
        }
    | Result.Error e when n <= policy.retries && retryable e ->
        Telemetry.count "supervisor.retries" 1;
        let msg =
          Format.asprintf "supervisor: %s attempt %d failed (%a), retrying%s"
            name n E.pp e
            (if policy.degrade then " degraded" else "")
        in
        (* With the journal on, the retry notice is an event (echoed per
           --log-level); without it, keep the historical stderr warning. *)
        if Journal.enabled () then
          Journal.emit ~level:Info ~msg Journal.Worker_retry
            [
              ("worker", name);
              ("attempt", string_of_int n);
              ("error", E.code_name e.E.code);
            ]
        else Format.eprintf "%s@." msg;
        go (n + 1)
    | Result.Error e ->
        {
          value = Result.Error (E.with_context e [ ("attempts", string_of_int n) ]);
          attempts = n;
          degraded;
          wall_time = Unix.gettimeofday () -. t0;
        }
  in
  go 1
