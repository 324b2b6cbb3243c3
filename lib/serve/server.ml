module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Cs = Api.Cs
module Spec = Zkvc.Matmul_spec
module Spec_fr = Zkvc.Matmul_spec.Make (Fr)
module Span = Zkvc_obs.Span
module Metrics = Zkvc_obs.Metrics
module Sink = Zkvc_obs.Sink
module Expose = Zkvc_obs.Expose
module Flight = Zkvc_obs.Flight
module Json = Zkvc_obs.Json
module Attrib = Zkvc_obs.Attrib

type config =
  { socket_path : string;
    queue_capacity : int;
    cache_capacity : int;
    cache_dir : string option;
    workers : int;
    jobs : int;
    job_delay_s : float;
    observe : bool;
    clock : (unit -> float) option;
    metrics_file : string option;
    metrics_interval_s : float;
    flight_capacity : int;
    flight_file : string option }

(* Monotonic wall clock (CLOCK_MONOTONIC via bechamel's stub), in
   seconds. Deadlines and uptime must never go through
   [Unix.gettimeofday]: an NTP step would expire every queued job at
   once — or keep deadlines from ever firing — and could make uptime
   negative. *)
let monotonic_now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let default_config ~socket_path =
  { socket_path;
    queue_capacity = 16;
    cache_capacity = Key_cache.default_capacity;
    cache_dir = None;
    workers = 1;
    jobs = 0;
    job_delay_s = 0.;
    observe = false;
    clock = None;
    metrics_file = None;
    metrics_interval_s = 1.;
    flight_capacity = 128;
    flight_file = None }

(* serve.* metrics mirror the atomic counters below; the atomics are
   authoritative (Status works with the sink disabled). *)
let m_requests = Metrics.counter "serve.requests"
let m_cache_hit = Metrics.counter "serve.cache.hit"
let m_cache_miss = Metrics.counter "serve.cache.miss"
let m_rejected = Metrics.counter "serve.queue.rejected"
let m_timeout = Metrics.counter "serve.deadline.exceeded"
let m_batched = Metrics.counter "serve.batch.coalesced"

(* batched-verification outcomes: groups that entered the batch
   verifier, groups whose combined check failed and fell back to
   per-item verdicts, and members flagged structurally malformed
   (attributable faults, distinct from honest rejection) *)
let m_batch_groups = Metrics.counter "serve.batch.groups"
let m_batch_fallback = Metrics.counter "serve.batch.fallback"
let m_batch_malformed = Metrics.counter "serve.batch.malformed"

(* worker-pool utilisation: pool size (constant once started) and how
   many workers are executing a job right now *)
let m_workers = Metrics.gauge "serve.workers"
let m_workers_busy = Metrics.gauge "serve.workers.busy"

(* [refs] counts the reader thread plus every queued job that still
   references this connection; the fd is closed only on the last
   release. Closing early would let a subsequent [accept] reuse the fd
   number and a stale job's response would land in an unrelated
   client's stream. *)
type conn =
  { fd : Unix.file_descr;
    cid : int; (* scheduler client id: one fair-queueing flow per connection *)
    wlock : Mutex.t;
    refs : int Atomic.t }

let next_cid = Atomic.make 1

let conn_retain conn = Atomic.incr conn.refs

let conn_release conn =
  if Atomic.fetch_and_add conn.refs (-1) = 1 then
    try Unix.close conn.fd with Unix.Unix_error _ -> ()

type job =
  { req : Wire.request;
    conn : conn;
    deadline : float option;
    trace : Wire.trace option;
    admit_s : float;
    depth_at_admit : int;
    payload_bytes : int }

(* One completed (or failed) request, as retained by the flight
   recorder. Everything is pre-rendered to strings/numbers so dumping
   is allocation-light and deterministic. *)
type flight_record =
  { fr_request_id : string; (* hex, or "-" when the request carried no trace *)
    fr_kind : string;
    fr_worker : int; (* worker index (0 .. workers-1) that executed it *)
    fr_cache : string; (* "hit" | "miss" | "-" *)
    fr_depth_at_admit : int;
    fr_wait_s : float;
    fr_exec_s : float;
    fr_bytes : int;
    fr_outcome : string; (* "ok" | wire error code *)
    fr_hot_region : string
    (* comma-separated hottest constraint regions ("path(n)"), prove
       jobs only; "-" otherwise *) }

let flight_record_to_json r =
  Json.Obj
    [ ("request_id", Json.String r.fr_request_id);
      ("kind", Json.String r.fr_kind);
      ("worker", Json.Int r.fr_worker);
      ("cache", Json.String r.fr_cache);
      ("depth_at_admit", Json.Int r.fr_depth_at_admit);
      ("wait_s", Json.Float r.fr_wait_s);
      ("exec_s", Json.Float r.fr_exec_s);
      ("bytes", Json.Int r.fr_bytes);
      ("outcome", Json.String r.fr_outcome);
      ("hot_region", Json.String r.fr_hot_region) ]

type t =
  { cfg : config;
    listen_fd : Unix.file_descr;
    jobs_q : job Jobs.t;
    cache : Key_cache.t;
    flight : flight_record Flight.t;
    started_at : float;
    requests : int Atomic.t;
    timeouts : int Atomic.t;
    rejections : int Atomic.t;
    batched : int Atomic.t;
    cache_hits : int Atomic.t;
    cache_misses : int Atomic.t;
    stopping : bool Atomic.t;
    live_workers : int Atomic.t; (* workers that have not exited yet *)
    busy_workers : int Atomic.t; (* workers executing a job right now *)
    sink_was_enabled : bool; (* the obs sink's state before [start] *)
    mutable is_drained : bool;
    drain_lock : Mutex.t;
    drain_cond : Condition.t;
    mutable workers : Thread.t list;
    mutable acceptor : Thread.t option;
    mutable snapshotter : Thread.t option;
    readers_lock : Mutex.t;
    mutable readers : Thread.t list }

let config t = t.cfg

exception Expired

let respond ?timing conn resp =
  Mutex.lock conn.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.wlock)
    (fun () ->
      try Wire.write_frame conn.fd (Wire.Response (timing, resp))
      with Unix.Unix_error _ | Sys_error _ -> (* peer gone *) ())

let respond_error conn code message = respond conn (Wire.Error { code; message })

(* Status reports queued jobs by request kind: both verify shapes, and
   the rest (keygen, prove). Control requests never reach the scheduler. *)
let is_verify = function Wire.Verify _ | Wire.Batch_verify _ -> true | _ -> false

let status t =
  { Wire.uptime_s = Span.now () -. t.started_at;
    requests = Atomic.get t.requests;
    queue_depth = Jobs.length t.jobs_q;
    queue_capacity = Jobs.capacity t.jobs_q;
    cache_hits = Atomic.get t.cache_hits;
    cache_misses = Atomic.get t.cache_misses;
    cache_entries = Key_cache.length t.cache;
    timeouts = Atomic.get t.timeouts;
    rejections = Atomic.get t.rejections;
    batched = Atomic.get t.batched;
    workers = Stdlib.max 1 t.cfg.workers;
    workers_busy = Atomic.get t.busy_workers;
    queue_depth_verify = Jobs.count t.jobs_q (fun j -> is_verify j.req);
    queue_depth_prove = Jobs.count t.jobs_q (fun j -> not (is_verify j.req)) }

(* ---------------- flight recorder / telemetry ---------------- *)

let flight_jsonl t =
  let b = Buffer.create 512 in
  List.iter
    (fun r ->
      Buffer.add_string b (Json.to_string (flight_record_to_json r));
      Buffer.add_char b '\n')
    (Flight.snapshot t.flight);
  Buffer.contents b

let write_metrics_snapshot t =
  match t.cfg.metrics_file with
  | None -> ()
  | Some path -> (
    try Expose.write_snapshot ~path (Expose.render ())
    with Sys_error _ -> ())

let flush_flight t =
  match t.cfg.flight_file with
  | None -> ()
  | Some path -> (
    try
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (flight_jsonl t))
    with Sys_error _ -> ())

let request_kind = function
  | Wire.Keygen _ -> "keygen"
  | Wire.Prove _ -> "prove"
  | Wire.Verify _ -> "verify"
  | Wire.Batch_verify _ -> "batch_verify"
  | Wire.Status -> "status"
  | Wire.Status_detail -> "status_detail"
  | Wire.Shutdown -> "shutdown"

let request_id_hex = function
  | Some { Wire.tr_request_id; _ } -> Wire.hex_of_id tr_request_id
  | None -> "-"

let zero_request_id = String.make Wire.request_id_bytes '\000'

let cache_outcome_of = function
  | Wire.Keygen_ok { cache_hit; _ } | Wire.Prove_ok { cache_hit; _ } ->
    if cache_hit then "hit" else "miss"
  | _ -> "-"

let outcome_of = function
  | Wire.Error { code; _ } -> Wire.error_code_to_string code
  | _ -> "ok"

(* Record batch metrics for one verified batch and name its path for
   its flight record, so a malformed member (structural fault,
   attributable) is distinguishable from honest cryptographic rejection
   and from the clean batched fast path. *)
let note_batch_outcome t ~n (outcome : Batch.outcome) =
  Metrics.incr m_batch_groups;
  (match outcome.Batch.path with
   | Batch.Batched ->
     ignore (Atomic.fetch_and_add t.batched n);
     Metrics.add m_batched n
   | Batch.Fallback -> Metrics.incr m_batch_fallback
   | Batch.Per_item -> ());
  (match outcome.Batch.malformed with
   | [] -> ()
   | bad -> Metrics.add m_batch_malformed (List.length bad));
  match (outcome.Batch.path, outcome.Batch.malformed) with
  | _, _ :: _ -> "ok_malformed"
  | Batch.Batched, [] -> "ok_batched"
  | Batch.Fallback, [] -> "ok_fallback"
  | Batch.Per_item, [] -> "ok"

(* ---------------- worker: request processing ---------------- *)

(* All deadline arithmetic reads the span clock installed by [start]
   (monotonic by default, injectable for tests) — never the wall clock. *)
let check_deadline deadline =
  match deadline with
  | Some d when Span.now () > d -> raise Expired
  | _ -> ()

let matrices_of_input dims input =
  match input with
  | Wire.Seeded { seed; bound } ->
    (* On a key-cache miss the proof is byte-identical to a local seeded
       CLI prove; on a hit the setup's RNG draws are skipped, so the
       prover randomness — and the proof bytes — differ (the proof itself
       stays valid). *)
    Spec_fr.seeded_statement ~seed ~bound dims
  | Wire.Explicit { seed; x; w } ->
    let rows m = Array.length m and cols m = Array.length m.(0) in
    if rows x <> dims.Spec.a || cols x <> dims.Spec.n
       || rows w <> dims.Spec.n || cols w <> dims.Spec.b then
      invalid_arg "matrix shape does not match dims";
    (Random.State.make [| seed |], x, w)

(* prepare + cached keygen, shared by Keygen and Prove *)
let prepared_keys t backend strategy dims input ~deadline =
  let rng, x, w = matrices_of_input dims input in
  let prep =
    Span.with_span "serve.prepare" (fun () -> Api.prepare strategy ~x ~w dims)
  in
  check_deadline deadline;
  let kf, hit =
    Key_cache.find_or_add t.cache backend strategy dims prep
      ~make:(fun () ->
        Span.with_span "serve.keygen" (fun () -> Api.keygen ~rng backend prep.Api.cs))
  in
  (match hit with
   | `Hit_mem | `Hit_disk ->
     Atomic.incr t.cache_hits;
     Metrics.incr m_cache_hit
   | `Miss ->
     Atomic.incr t.cache_misses;
     Metrics.incr m_cache_miss);
  check_deadline deadline;
  (rng, prep, kf, hit <> `Miss)

let process_keygen t ~backend ~strategy ~dims ~seed ~bound ~deadline =
  let _rng, _prep, kf, cache_hit =
    prepared_keys t backend strategy dims (Wire.Seeded { seed; bound }) ~deadline
  in
  Wire.Keygen_ok
    { key_id = kf.Wire.kf_key_id; cache_hit; key_bytes = Wire.encode_key_file kf }

(* The [n] hottest constraint regions of a prepared instance, rendered
   "path(count)" and comma-joined — the provenance breadcrumb attached
   to prove spans and flight records so a slow request names the
   circuit region that dominates it without re-profiling. *)
let hot_regions_of ?n prep =
  match Attrib.top_regions ?n prep.Api.regions with
  | [] -> "-"
  | tops ->
    String.concat ","
      (List.map (fun (path, c) -> Printf.sprintf "%s(%d)" path c) tops)

let process_prove t ~backend ~strategy ~dims ~input ~deadline ~hot =
  let rng, prep, kf, cache_hit = prepared_keys t backend strategy dims input ~deadline in
  let hot_s = hot_regions_of prep in
  hot := hot_s;
  let t0 = Span.now () in
  let proof =
    Span.with_span ~args:[ ("hot_regions", hot_s) ] "serve.prove" (fun () ->
        Api.prove_with ~rng kf.Wire.kf_keys prep.Api.assignment)
  in
  check_deadline deadline;
  Wire.Prove_ok
    { key_id = kf.Wire.kf_key_id;
      cache_hit;
      challenge = prep.Api.challenge;
      public_inputs = Cs.public_inputs prep.Api.cs prep.Api.assignment;
      proof;
      prove_s = Span.now () -. t0 }

let unknown_key_error =
  Wire.Error { code = Wire.Unknown_key; message = "no key with this id (run keygen first)" }

(* Run one job's body and return the response (never raises; never
   writes to the socket). [args] tag every [serve.request.*] span with
   the request id so exported traces can be joined across processes. *)
let execute t job ~args ~hot ~note =
  try
    check_deadline job.deadline;
    match job.req with
    | Wire.Keygen { backend; strategy; dims; seed; bound; deadline_ms = _ } ->
      Span.with_span ~args "serve.request.keygen" (fun () ->
          process_keygen t ~backend ~strategy ~dims ~seed ~bound ~deadline:job.deadline)
    | Wire.Prove { backend; strategy; dims; input; deadline_ms = _ } ->
      Span.with_span ~args "serve.request.prove" (fun () ->
          process_prove t ~backend ~strategy ~dims ~input ~deadline:job.deadline ~hot)
    | Wire.Verify { key_id; public_inputs; proof; deadline_ms = _ } -> (
      match Key_cache.find_by_id t.cache key_id with
      | None -> unknown_key_error
      | Some kf ->
        let ok =
          Span.with_span ~args "serve.request.verify" (fun () ->
              match Api.verify_with kf.Wire.kf_keys ~public_inputs proof with
              | ok -> ok
              | exception Invalid_argument _ -> false)
        in
        Wire.Verify_ok ok)
    | Wire.Batch_verify { key_id; items; deadline_ms = _ } -> (
      if items = [] then
        (* no sound verdict exists for zero instances: reject loudly
           rather than answer an empty (vacuously "all verified") list *)
        Wire.Error { code = Wire.Bad_request; message = "Batch_verify: empty batch" }
      else
        match Key_cache.find_by_id t.cache key_id with
        | None -> unknown_key_error
        | Some kf ->
          let outcome =
            Span.with_span ~args "serve.request.batch_verify" (fun () ->
                Batch.verify_each kf.Wire.kf_keys items)
          in
          note := Some (note_batch_outcome t ~n:(List.length items) outcome);
          Wire.Batch_ok outcome.Batch.verdicts)
    | Wire.Status | Wire.Status_detail | Wire.Shutdown ->
      (* handled on the reader threads; never queued *)
      Wire.Error { code = Wire.Bad_request; message = "unexpected control request in job queue" }
  with
  | Expired ->
    Atomic.incr t.timeouts;
    Metrics.incr m_timeout;
    Wire.Error { code = Wire.Deadline_exceeded; message = "deadline exceeded" }
  | Invalid_argument msg -> Wire.Error { code = Wire.Bad_request; message = msg }
  | e -> Wire.Error { code = Wire.Internal; message = Printexc.to_string e }

(* The just-completed request span and its named sub-phases, as wire
   timing phases: (name, offset from execution start, duration),
   pre-order — the [serve.request.*] root itself comes first, so the
   timing block names the request kind — truncated to the wire bound. *)
let phases_of_span root =
  let origin = Span.start_s root in
  let rec go acc s =
    let acc = (Span.name s, Span.start_s s -. origin, Span.duration_s s) :: acc in
    List.fold_left go acc (Span.children s)
  in
  let all = List.rev (go [] root) in
  List.filteri (fun i _ -> i < 256) all

(* Run a job end to end: span-wrapped execution, timing extraction, then
   a flight record and the response with its timing block. Recording
   first means a client that has its reply can already see the record in
   a Status_detail dump. *)
let run_job t ~wid job =
  let wait_s = Span.now () -. job.admit_s in
  let args =
    ("worker", string_of_int wid)
    ::
    (match job.trace with
     | Some tr -> [ ("request_id", Wire.hex_of_id tr.Wire.tr_request_id) ]
     | None -> [])
  in
  let before = Span.last_completed () in
  let hot = ref "-" in
  let note = ref None in
  let t0 = Span.now () in
  let resp = execute t job ~args ~hot ~note in
  let exec_s = Span.now () -. t0 in
  (* the span [execute] just closed, if it opened one (error paths that
     fail before any span leave [last_completed] stale — detect by
     physical identity) *)
  let phases =
    match Span.last_completed () with
    | Some s when (match before with Some b -> not (s == b) | None -> true) ->
      phases_of_span s
    | _ -> []
  in
  Flight.record t.flight
    { fr_request_id = request_id_hex job.trace;
      fr_kind = request_kind job.req;
      fr_worker = wid;
      fr_cache = cache_outcome_of resp;
      fr_depth_at_admit = job.depth_at_admit;
      fr_wait_s = wait_s;
      fr_exec_s = exec_s;
      fr_bytes = job.payload_bytes;
      fr_outcome = (match !note with Some s -> s | None -> outcome_of resp);
      fr_hot_region = !hot };
  let timing =
    { Wire.tm_request_id =
        (match job.trace with Some tr -> tr.Wire.tr_request_id | None -> zero_request_id);
      tm_queue_wait_s = wait_s;
      tm_exec_s = exec_s;
      tm_phases = phases }
  in
  respond ~timing job.conn resp

let worker_body t ~wid =
  let rec loop () =
    match Jobs.pop t.jobs_q with
    | None -> ()
    | Some ticket ->
      if t.cfg.job_delay_s > 0. then Thread.delay t.cfg.job_delay_s;
      Atomic.incr t.busy_workers;
      Metrics.set m_workers_busy (float_of_int (Atomic.get t.busy_workers));
      (* the catch-all keeps the worker alive: an unexpected exception
         must answer Internal and continue, not silently kill a
         consumer. The finally releases the conn ref, frees the
         scheduler client (so its next job can dispatch) and drops the
         busy gauge. *)
      let job = ticket.Jobs.t_item in
      Fun.protect
        ~finally:(fun () ->
          conn_release job.conn;
          Jobs.complete t.jobs_q ~client:ticket.Jobs.t_client;
          ignore (Atomic.fetch_and_add t.busy_workers (-1));
          Metrics.set m_workers_busy (float_of_int (Atomic.get t.busy_workers)))
        (fun () ->
          try run_job t ~wid job
          with e -> respond_error job.conn Wire.Internal (Printexc.to_string e));
      loop ()
  in
  loop ()

(* The finally block runs on normal drain AND when a worker dies on an
   unexpected exception. The last worker out flushes the flight ring
   and a final metrics snapshot, gives the obs sink back the state
   [start] found, then releases shutdown waiters — by
   then every job has been answered, since each worker finishes its own
   job before exiting. *)
let worker_loop t ~wid =
  Fun.protect
    ~finally:(fun () ->
      if Atomic.fetch_and_add t.live_workers (-1) = 1 then begin
        flush_flight t;
        write_metrics_snapshot t;
        if not t.sink_was_enabled then Sink.disable ();
        Mutex.lock t.drain_lock;
        t.is_drained <- true;
        Condition.broadcast t.drain_cond;
        Mutex.unlock t.drain_lock
      end)
    (fun () -> worker_body t ~wid)

(* Periodic atomic-rename metrics snapshots while the server runs; the
   final post-drain snapshot is written by the last worker's finally.
   Sleeps in short ticks rather than whole intervals (the stdlib
   [Condition] has no timed wait) so [Server.wait] returns promptly
   after drain even with a large [metrics_interval_s]. *)
let snapshot_loop t interval_s =
  let interval_s = if interval_s > 0. then interval_s else 1. in
  let tick = 0.05 in
  let rec loop next =
    if not t.is_drained then begin
      let now = monotonic_now () in
      if now >= next then begin
        write_metrics_snapshot t;
        loop (now +. interval_s)
      end
      else begin
        Thread.delay (Stdlib.min tick (next -. now));
        loop next
      end
    end
  in
  loop (monotonic_now () +. interval_s)

(* ---------------- reader threads ---------------- *)

let deadline_of arrival deadline_ms =
  if deadline_ms <= 0 then None else Some (arrival +. (float_of_int deadline_ms /. 1000.))

let request_deadline_ms = function
  | Wire.Keygen { deadline_ms; _ }
  | Wire.Prove { deadline_ms; _ }
  | Wire.Verify { deadline_ms; _ }
  | Wire.Batch_verify { deadline_ms; _ } ->
    deadline_ms
  | Wire.Status | Wire.Status_detail | Wire.Shutdown -> 0

let rec shutdown t =
  if not (Atomic.exchange t.stopping true) then begin
    Jobs.close t.jobs_q;
    (* wake a blocked [accept]: the acceptor rechecks the stop flag on
       every returned connection *)
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX t.cfg.socket_path) with _ -> ());
       Unix.close fd
     with _ -> ())
  end;
  (* everyone who asks for shutdown blocks until drained *)
  Mutex.lock t.drain_lock;
  while not t.is_drained do
    Condition.wait t.drain_cond t.drain_lock
  done;
  Mutex.unlock t.drain_lock

and handle_request t conn ~trace ~payload_bytes req =
  Atomic.incr t.requests;
  Metrics.incr m_requests;
  match req with
  | Wire.Status -> respond conn (Wire.Status_ok (status t))
  | Wire.Status_detail ->
    (* served on the reader thread (no proving): metrics registry and
       flight ring are both safe to read concurrently with the worker *)
    respond conn
      (Wire.Status_detail_ok
         { status = status t;
           metrics_text = Expose.render ();
           flight_jsonl = flight_jsonl t })
  | Wire.Shutdown ->
    shutdown t;
    respond conn Wire.Shutdown_ok
  | req -> (
    let arrival = Span.now () in
    let job =
      { req;
        conn;
        deadline = deadline_of arrival (request_deadline_ms req);
        trace;
        admit_s = arrival;
        depth_at_admit = Jobs.length t.jobs_q;
        payload_bytes }
    in
    conn_retain conn;
    (* the queued job owns this ref; the worker releases it after responding *)
    match Jobs.push t.jobs_q ~client:conn.cid job with
    | `Ok -> ()
    | `Full ->
      conn_release conn;
      Atomic.incr t.rejections;
      Metrics.incr m_rejected;
      respond_error conn Wire.Queue_full "job queue is full, retry later"
    | `Closed ->
      conn_release conn;
      respond_error conn Wire.Shutting_down "server is shutting down")

let reader_loop t conn =
  let stop_now () = Atomic.get t.stopping && t.is_drained in
  let rec loop () =
    if not (stop_now ()) then
      match Unix.select [ conn.fd ] [] [] 0.25 with
      | [], _, _ -> loop ()
      | _ -> (
        match Wire.read_frame' conn.fd with
        | Error Wire.Eof -> ()
        | Error e ->
          (* framing is lost after a malformed frame: answer, then drop *)
          respond_error conn Wire.Bad_request (Wire.error_to_string e)
        | Ok (Wire.Response _, _) ->
          respond_error conn Wire.Bad_request "unexpected response frame"
        | Ok (Wire.Request (trace, req), meta) ->
          handle_request t conn ~trace ~payload_bytes:meta.Wire.payload_bytes req;
          loop ())
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> loop ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
  in
  (try loop () with _ -> ());
  (* drop the reader's ref; queued jobs for this conn keep the fd alive
     until the worker has answered them *)
  conn_release conn

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
      if Atomic.get t.stopping then (try Unix.close fd with _ -> ())
      else begin
        let conn =
          { fd;
            cid = Atomic.fetch_and_add next_cid 1;
            wlock = Mutex.create ();
            refs = Atomic.make 1 }
        in
        let th = Thread.create (fun () -> reader_loop t conn) () in
        Mutex.lock t.readers_lock;
        t.readers <- th :: t.readers;
        Mutex.unlock t.readers_lock;
        loop ()
      end
    | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> loop ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  (try Unix.close t.listen_fd with _ -> ());
  try Sys.remove t.cfg.socket_path with Sys_error _ -> ()

(* ---------------- lifecycle ---------------- *)

let start cfg =
  (* writes to a peer that already disconnected must surface as EPIPE
     (handled in [respond]) instead of a process-killing SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Spans, deadlines and uptime all read [Span.now]. The default is a
     monotonic clock — not [Unix.gettimeofday], which an NTP step can
     move under us, and not [Sys.time], which is process CPU time and
     sums across worker domains. Tests inject a simulated clock. *)
  Span.set_clock (match cfg.clock with Some f -> f | None -> monotonic_now);
  (* several worker systhreads share this domain: give each its own span
     stack so concurrent jobs don't corrupt one another's nesting *)
  Span.set_context (fun () -> Thread.id (Thread.self ()));
  (* metrics exposition is pointless with the sink off, so a metrics
     file implies observation *)
  let sink_was_enabled = Sink.is_enabled () in
  if cfg.observe || cfg.metrics_file <> None then Sink.enable ();
  if cfg.jobs > 0 then Zkvc_parallel.set_jobs cfg.jobs;
  if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path)
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  Unix.listen listen_fd 64;
  let nworkers = Stdlib.max 1 cfg.workers in
  let t =
    { cfg;
      listen_fd;
      jobs_q = Jobs.create ~capacity:cfg.queue_capacity;
      cache = Key_cache.create ~capacity:cfg.cache_capacity ?dir:cfg.cache_dir ();
      flight = Flight.create ~capacity:(Stdlib.max 1 cfg.flight_capacity);
      started_at = Span.now ();
      requests = Atomic.make 0;
      timeouts = Atomic.make 0;
      rejections = Atomic.make 0;
      batched = Atomic.make 0;
      cache_hits = Atomic.make 0;
      cache_misses = Atomic.make 0;
      stopping = Atomic.make false;
      live_workers = Atomic.make nworkers;
      busy_workers = Atomic.make 0;
      sink_was_enabled;
      is_drained = false;
      drain_lock = Mutex.create ();
      drain_cond = Condition.create ();
      workers = [];
      acceptor = None;
      snapshotter = None;
      readers_lock = Mutex.create ();
      readers = [] }
  in
  Metrics.set m_workers (float_of_int nworkers);
  Metrics.set m_workers_busy 0.;
  t.workers <-
    List.init nworkers (fun wid -> Thread.create (fun () -> worker_loop t ~wid) ());
  t.acceptor <- Some (Thread.create (fun () -> accept_loop t) ());
  if cfg.metrics_file <> None then begin
    write_metrics_snapshot t;
    t.snapshotter <- Some (Thread.create (fun () -> snapshot_loop t cfg.metrics_interval_s) ())
  end;
  t

let wait t =
  Option.iter Thread.join t.acceptor;
  List.iter Thread.join t.workers;
  Option.iter Thread.join t.snapshotter;
  let readers =
    Mutex.lock t.readers_lock;
    let r = t.readers in
    Mutex.unlock t.readers_lock;
    r
  in
  List.iter Thread.join readers
