(** The zkVC proof service: a Unix-domain-socket server that keeps
    circuit keys warm across requests.

    Threading model (systhreads, one OCaml domain): one accept thread,
    one reader thread per connection, and [config.workers] worker
    threads (default 1) pulling from the {!Jobs} scheduler — per-client
    FIFOs served in plain round robin from one ring. Readers only parse,
    enqueue and answer [Status]/[Status_detail]/[Shutdown];
    proving/verifying happens on the workers. The layers underneath are
    concurrency-safe for this: [Zkvc_parallel] admits one submitter at a
    time (the rest degrade to sequential), [Key_cache] runs keygen
    per-key single-flight, and [Zkvc_obs] spans record per-thread. At most one job per connection
    is in flight at once, so each connection's responses always arrive
    in request order regardless of worker count. Parallelism inside a
    job still comes from the domain pool ([config.jobs]).

    Backpressure: the job queue is bounded; a full queue rejects with
    [Queue_full] instead of queueing unboundedly. Deadlines are checked
    when a job is dequeued and between phases (prepare / keygen / prove),
    answering [Deadline_exceeded]. Shutdown closes the queue, drains
    in-flight jobs, answers the shutdown request, then stops accepting. *)

type config =
  { socket_path : string;
    queue_capacity : int;
    cache_capacity : int;
    cache_dir : string option;  (** enables key-file disk spill *)
    workers : int;
        (** worker-thread pool size; values [< 1] are treated as [1].
            [1] (the default) reproduces the single-worker behaviour *)
    jobs : int;  (** domain-pool size for the workers; [0] = leave as-is *)
    job_delay_s : float;
        (** test hook: sleep this long before each job (deterministic
            queue-full / deadline tests). Leave [0.] *)
    observe : bool;
        (** enable the [Zkvc_obs] sink + serve.* metrics while the
            server runs; the drain puts back the sink state [start]
            found *)
    clock : (unit -> float) option;
        (** clock installed as the span clock and used for every
            deadline, uptime and duration reading. [None] (the default)
            selects a monotonic clock ([CLOCK_MONOTONIC]); tests inject
            a simulated clock here. Never [Unix.gettimeofday]: an NTP
            step would expire every queued job, or keep deadlines from
            ever firing. *)
    metrics_file : string option;
        (** write a Prometheus-exposition snapshot ([Zkvc_obs.Expose])
            here every [metrics_interval_s], atomically (tmp +
            rename), plus a final snapshot at drain. Implies the obs
            sink. *)
    metrics_interval_s : float;  (** snapshot period; default 1s *)
    flight_capacity : int;
        (** flight-recorder ring size (last N completed/failed jobs);
            default 128 *)
    flight_file : string option;
        (** dump the flight ring (JSONL) here when the last worker
            drains or dies — same bytes [Status_detail] returns *) }

val default_config : socket_path:string -> config

type t

val config : t -> config

(** Bind, listen and spawn the accept + worker threads. Installs
    [config.clock] (monotonic by default) as the span clock, and
    per-thread span contexts, before any span opens or deadline is
    computed. Raises [Unix.Unix_error] if the socket can't be bound. *)
val start : config -> t

(** Request a graceful stop: close the queue, wait for every worker to
    drain, stop accepting. Idempotent; blocks until drained. *)
val shutdown : t -> unit

(** Block until the server has fully stopped (accept, worker and reader
    threads joined). *)
val wait : t -> unit

(** Current status snapshot (same data a [Status] request returns). *)
val status : t -> Wire.status

(** The flight-recorder contents, one JSON object per line, oldest
    first — exactly the bytes [Status_detail] returns and the
    [flight_file] flush writes. *)
val flight_jsonl : t -> string
