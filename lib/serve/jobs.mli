(** The proof service's job scheduler: bounded per-client FIFOs served
    in plain round robin from one ring.

    Every queued job belongs to a client (an opaque [int], one per
    connection). Each client has one FIFO — so responses on a connection
    always come back in request order — and sits in the dispatch ring
    while that FIFO is non-empty. {!pop} walks the ring and dispatches
    the head job of the first idle client, which then moves to the back
    of the ring: a flooding client cannot starve a quiet one, and no
    kind of request is preferred over another.

    At most one job per client is in flight at a time: {!pop} marks the
    client busy and the worker must call {!complete} after responding,
    which is what preserves per-connection response ordering with
    several workers. {!push} never blocks — the [capacity] bound counts
    queued (not in-flight) jobs, and a full scheduler rejects ([`Full],
    the backpressure signal).

    While the obs sink is enabled the scheduler maintains the
    [serve.queue.depth] gauge and [serve.queue.wait_s] histogram. *)

type 'a t

(** A dispatched job: the item and the owning client (pass it back to
    {!complete}). *)
type 'a ticket = { t_item : 'a; t_client : int }

(** [create ~capacity] makes an empty scheduler. *)
val create : capacity:int -> 'a t

val capacity : 'a t -> int

(** Queued jobs (in-flight jobs not counted). *)
val length : 'a t -> int

(** [count t p] is the number of queued jobs whose item satisfies [p]. *)
val count : 'a t -> ('a -> bool) -> int

(** Non-blocking: [`Full] once [length = capacity], [`Closed] after
    {!close}. *)
val push : 'a t -> client:int -> 'a -> [ `Ok | `Full | `Closed ]

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
