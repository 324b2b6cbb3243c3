(** The proof service's job scheduler: bounded per-client queues under
    deficit-round-robin fair scheduling, with two priority lanes.

    Every queued job belongs to a client (an opaque [int], one per
    connection) and a {!lane}. Each client has one FIFO — so responses
    on a connection always come back in request order — and sits in the
    dispatch ring of whatever lane its {e head} job belongs to. {!pop}
    serves the verify ring strictly before the prove ring (cheap
    verifies never wait behind queued proves), and within a ring runs
    deficit round robin: each visit grants the client [quantum] credits,
    and its head job dispatches once credits cover the job's [cost] —
    so a flooding client cannot starve a quiet one, and an expensive job
    (cost > quantum) waits a few rotations while cheaper peers proceed.

    At most one job per client is in flight at a time: {!pop} marks the
    client busy and the worker must call {!complete} after responding,
    which is what preserves per-connection response ordering with
    several workers. {!push} never blocks — the [capacity] bound counts
    queued (not in-flight) jobs across both lanes, and a full scheduler
    rejects ([`Full], the backpressure signal).

    While the obs sink is enabled the scheduler maintains the
    [serve.queue.depth] gauge and [serve.queue.wait_s] histogram plus
    their per-lane variants ([....depth.verify], [....depth.prove],
    [....wait_s.verify], [....wait_s.prove]). *)

type lane = Lane_verify | Lane_prove

val lane_to_string : lane -> string

type 'a t

(** A dispatched job: the item, the owning client (pass it back to
    {!complete}) and the lane it was queued on. *)
type 'a ticket = { t_item : 'a; t_client : int; t_lane : lane }

(** [create ~capacity ()] makes an empty scheduler. [quantum] is the
    per-visit deficit grant (default 4 — one default-cost prove per
    visit). *)
val create : ?quantum:int -> capacity:int -> unit -> 'a t

val capacity : 'a t -> int

(** Queued jobs across both lanes (in-flight jobs not counted). *)
val length : 'a t -> int

(** Queued jobs in one lane. *)
val lane_depth : 'a t -> lane -> int

(** Non-blocking: [`Full] once [length = capacity], [`Closed] after
    {!close}. [cost] (default 1, clamped to [1 .. 64]) is the job's
    deficit price — the service charges 1 for a verify and [quantum]
    for keygen/prove. *)
val push : 'a t -> client:int -> lane:lane -> ?cost:int -> 'a -> [ `Ok | `Full | `Closed ]

(** Blocks until a job is dispatchable; [None] once the scheduler is
    closed and drained. The returned ticket's client is marked busy:
    its next job dispatches only after {!complete}. *)
val pop : 'a t -> 'a ticket option

(** After a popped job has been answered, release its client so the
    client's next queued job can dispatch. Call exactly once per popped
    ticket. *)
val complete : 'a t -> client:int -> unit

(** Stop accepting jobs; blocked {!pop}s return once the backlog drains. *)
val close : 'a t -> unit

val is_closed : 'a t -> bool
