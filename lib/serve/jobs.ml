module Metrics = Zkvc_obs.Metrics
module Span = Zkvc_obs.Span

(* Round robin over per-client FIFOs from one ring.

   Shape: every client (connection) owns one FIFO of jobs in arrival
   order, and sits in [ring] while that FIFO is non-empty. [pop] walks
   the ring from the front: a busy client (one with a job in flight) is
   rotated to the back, and the first idle client dispatches its head
   and, if it has more queued, also goes to the back. A busy client
   never has a second job dispatched until [complete] — that rule is
   what keeps each connection's responses in request order even with
   many workers.

   Invariants (all under [lock]):
   - a client is in [ring] exactly once iff its FIFO is non-empty;
   - [depth] counts queued (never in-flight) jobs and is bounded by
     [capacity].

   Telemetry: the depth gauge on every transition, the wait histogram
   when a job leaves the queue. Timestamps use the span clock so they
   agree with span data; both instruments are no-ops while the obs sink
   is disabled. *)

let m_depth = Metrics.gauge "serve.queue.depth"
let m_wait = Metrics.histogram "serve.queue.wait_s"

type 'a entry = { admit_s : float; item : 'a }

type 'a client =
  { cid : int;
    q : 'a entry Queue.t; (* this connection's jobs, arrival order *)
    mutable busy : bool (* a dispatched job is awaiting [complete] *) }

type 'a ticket = { t_item : 'a; t_client : int }

type 'a t =
  { capacity : int;
    lock : Mutex.t;
    nonempty : Condition.t;
    clients : (int, 'a client) Hashtbl.t;
    ring : 'a client Queue.t; (* clients with queued jobs *)
    mutable depth : int;
    mutable closed : bool }

let create ~capacity =
  if capacity < 1 then invalid_arg "Jobs.create: capacity must be positive";
  { capacity;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    clients = Hashtbl.create 16;
    ring = Queue.create ();
    depth = 0;
    closed = false }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* the helpers below assume t.lock is held *)

let bump_depth t d =
  t.depth <- t.depth + d;
  Metrics.set m_depth (float_of_int t.depth)

(* One rotation of the ring: dispatch the first idle client's head. *)
let dispatch t =
  let rec visit i =
    if i = 0 then None
    else begin
      let c = Queue.pop t.ring in
      if c.busy then begin
        Queue.push c t.ring;
        visit (i - 1)
      end
      else begin
        let e = Queue.pop c.q in
        c.busy <- true;
        if not (Queue.is_empty c.q) then Queue.push c t.ring;
        bump_depth t (-1);
        Metrics.observe m_wait (Span.now () -. e.admit_s);
        Some { t_item = e.item; t_client = c.cid }
      end
    end
  in
  visit (Queue.length t.ring)

let length t = with_lock t (fun () -> t.depth)

let count t p =
  with_lock t (fun () ->
      Hashtbl.fold
        (fun _ c n -> Queue.fold (fun n e -> if p e.item then n + 1 else n) n c.q)
        t.clients 0)

let push t ~client x =
  with_lock t (fun () ->
      if t.closed then `Closed
      else if t.depth >= t.capacity then `Full
      else begin
        let c =
          match Hashtbl.find_opt t.clients client with
          | Some c -> c
          | None ->
            let c = { cid = client; q = Queue.create (); busy = false } in
            Hashtbl.add t.clients client c;
            c
        in
        if Queue.is_empty c.q then Queue.push c t.ring;
        Queue.push { admit_s = Span.now (); item = x } c.q;
        bump_depth t 1;
        Condition.broadcast t.nonempty;
        `Ok
      end)

let pop t =
  with_lock t (fun () ->
      let rec loop () =
        match dispatch t with
        | Some tk -> Some tk
        | None when t.closed && t.depth = 0 -> None
        | None ->
          (* nothing dispatchable: empty, or every backlogged client is
             busy; [push]/[complete]/[close] wake us *)
          Condition.wait t.nonempty t.lock;
          loop ()
      in
      loop ())

let complete t ~client =
  with_lock t (fun () ->
      (match Hashtbl.find_opt t.clients client with
       | None -> ()
       | Some c ->
         c.busy <- false;
         if Queue.is_empty c.q then Hashtbl.remove t.clients client);
      Condition.broadcast t.nonempty)

let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.nonempty)
