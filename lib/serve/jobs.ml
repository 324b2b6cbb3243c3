module Metrics = Zkvc_obs.Metrics
module Span = Zkvc_obs.Span

(* Two-lane deficit-round-robin scheduler over per-client FIFOs.

   Shape: every client (connection) owns one FIFO of (lane, cost, item)
   entries in arrival order, and sits in the dispatch ring of its head
   entry's lane. [pop] scans the verify ring strictly before the prove
   ring; within a ring each visited client earns [quantum] deficit
   credits and dispatches its head once the credits cover the head's
   cost. A client with a job in flight is skipped (rotated to the back)
   until [complete] — that single-job-in-flight rule is what keeps each
   connection's responses in request order even with many workers.

   Invariants (all under [lock]):
   - a client is in exactly one ring iff its FIFO is non-empty, and that
     ring matches its head entry's lane;
   - [depth_verify]/[depth_prove] count queued (never in-flight)
     entries, and their sum is bounded by [capacity];
   - a busy client never has a second job dispatched.

   Telemetry: total + per-lane depth gauges on every transition, total +
   per-lane wait histograms when a job leaves the queue. Timestamps use
   the span clock so they agree with span data; all instruments are
   no-ops while the obs sink is disabled. *)

let m_depth = Metrics.gauge "serve.queue.depth"
let m_depth_verify = Metrics.gauge "serve.queue.depth.verify"
let m_depth_prove = Metrics.gauge "serve.queue.depth.prove"
let m_wait = Metrics.histogram "serve.queue.wait_s"
let m_wait_verify = Metrics.histogram "serve.queue.wait_s.verify"
let m_wait_prove = Metrics.histogram "serve.queue.wait_s.prove"

type lane = Lane_verify | Lane_prove

let lane_to_string = function Lane_verify -> "verify" | Lane_prove -> "prove"

type 'a entry = { lane : lane; cost : int; admit_s : float; item : 'a }

type 'a client =
  { cid : int;
    q : 'a entry Queue.t; (* this connection's jobs, arrival order *)
    mutable deficit : int;
    mutable busy : bool (* a dispatched job is awaiting [complete] *) }

type 'a ticket = { t_item : 'a; t_client : int; t_lane : lane }

type 'a t =
  { capacity : int;
    quantum : int;
    lock : Mutex.t;
    nonempty : Condition.t;
    clients : (int, 'a client) Hashtbl.t;
    ring_verify : int Queue.t; (* cids whose head entry is a verify *)
    ring_prove : int Queue.t;
    mutable depth_verify : int;
    mutable depth_prove : int;
    mutable closed : bool }

let max_cost = 64

let clamp_cost c = if c < 1 then 1 else if c > max_cost then max_cost else c

let create ?(quantum = 4) ~capacity () =
  if capacity < 1 then invalid_arg "Jobs.create: capacity must be positive";
  if quantum < 1 then invalid_arg "Jobs.create: quantum must be positive";
  { capacity;
    quantum;
    lock = Mutex.create ();
    nonempty = Condition.create ();
    clients = Hashtbl.create 16;
    ring_verify = Queue.create ();
    ring_prove = Queue.create ();
    depth_verify = 0;
    depth_prove = 0;
    closed = false }

let capacity t = t.capacity

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let ring t = function Lane_verify -> t.ring_verify | Lane_prove -> t.ring_prove

(* the helpers below assume t.lock is held *)

let length_locked t = t.depth_verify + t.depth_prove

let note_depth t =
  Metrics.set m_depth (float_of_int (length_locked t));
  Metrics.set m_depth_verify (float_of_int t.depth_verify);
  Metrics.set m_depth_prove (float_of_int t.depth_prove)

let note_wait lane admit_s =
  let w = Span.now () -. admit_s in
  Metrics.observe m_wait w;
  Metrics.observe
    (match lane with Lane_verify -> m_wait_verify | Lane_prove -> m_wait_prove)
    w

let bump_depth t lane d =
  (match lane with
   | Lane_verify -> t.depth_verify <- t.depth_verify + d
   | Lane_prove -> t.depth_prove <- t.depth_prove + d);
  note_depth t

let client_of t cid =
  match Hashtbl.find_opt t.clients cid with
  | Some c -> c
  | None ->
    let c = { cid; q = Queue.create (); deficit = 0; busy = false } in
    Hashtbl.add t.clients cid c;
    c

(* Dequeue [c]'s head (already paid for) and re-ring the client under
   its new head's lane, if any. *)
let dispatch_head t c =
  let e = Queue.pop c.q in
  c.busy <- true;
  bump_depth t e.lane (-1);
  note_wait e.lane e.admit_s;
  if Queue.is_empty c.q then c.deficit <- 0
  else Queue.push c.cid (ring t (Queue.peek c.q).lane);
  { t_item = e.item; t_client = c.cid; t_lane = e.lane }

(* One DRR pass over a lane's ring. Sets [starved] when some idle
   client earned credits but its head is still too expensive — the
   caller then rescans immediately (credits accumulate) instead of
   blocking, so an expensive head always dispatches after finitely many
   passes. *)
let scan_lane t lane ~starved =
  let r = ring t lane in
  let rotations = Queue.length r in
  let rec visit i =
    if i >= rotations || Queue.is_empty r then None
    else begin
      let cid = Queue.pop r in
      match Hashtbl.find_opt t.clients cid with
      | None -> visit i (* defensive: stale slot, drop it *)
      | Some c ->
        if Queue.is_empty c.q then visit i (* defensive: stale slot *)
        else if c.busy then begin
          Queue.push cid r;
          visit (i + 1)
        end
        else begin
          let e = Queue.peek c.q in
          c.deficit <- c.deficit + t.quantum;
          if c.deficit >= e.cost then begin
            c.deficit <- c.deficit - e.cost;
            Some (dispatch_head t c)
          end
          else begin
            starved := true;
            Queue.push cid r;
            visit (i + 1)
          end
        end
    end
  in
  visit 0

let length t = with_lock t (fun () -> length_locked t)

let lane_depth t lane =
  with_lock t (fun () ->
      match lane with Lane_verify -> t.depth_verify | Lane_prove -> t.depth_prove)

let push t ~client ~lane ?(cost = 1) x =
  with_lock t (fun () ->
      if t.closed then `Closed
      else if length_locked t >= t.capacity then `Full
      else begin
        let c = client_of t client in
        let was_empty = Queue.is_empty c.q in
        Queue.push { lane; cost = clamp_cost cost; admit_s = Span.now (); item = x } c.q;
        if was_empty then Queue.push client (ring t lane);
        bump_depth t lane 1;
        Condition.broadcast t.nonempty;
        `Ok
      end)

let pop t =
  with_lock t (fun () ->
      let rec loop () =
        let starved = ref false in
        match scan_lane t Lane_verify ~starved with
        | Some tk -> Some tk
        | None -> (
          match scan_lane t Lane_prove ~starved with
          | Some tk -> Some tk
          | None ->
            if !starved then loop ()
            else if t.closed && length_locked t = 0 then None
            else begin
              (* nothing dispatchable: empty, or every backlogged client
                 is busy; [push]/[complete]/[close] wake us *)
              Condition.wait t.nonempty t.lock;
              loop ()
            end)
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

let is_closed t = with_lock t (fun () -> t.closed)
