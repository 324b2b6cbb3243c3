module Sha256 = Zkvc_hash.Sha256
module Span = Zkvc_obs.Span

(* Synthetic Chrome-trace track for spans stitched from the server's
   timing block: keeps remote spans on their own row instead of
   interleaving with the client's own domain. *)
let server_track = 1000

type t =
  { fd : Unix.file_descr;
    mutable closed : bool;
    origin : string;
    mutable last_timing : Wire.timing option;
    mutable last_request_id : string option }

let id_counter = Atomic.make 0

(* Unique per request within and across processes: pid + process-local
   counter + wall clock, hashed down to the 16 wire bytes. *)
let fresh_request_id () =
  let seed =
    Printf.sprintf "%d.%d.%.9f" (Unix.getpid ())
      (Atomic.fetch_and_add id_counter 1)
      (Unix.gettimeofday ())
  in
  Bytes.sub_string (Sha256.digest_string seed) 0 Wire.request_id_bytes

let connect ?origin path =
  (* a server that dies mid-request must surface as EPIPE on write, not
     kill the client process with SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let origin =
    match origin with
    | Some o -> o
    | None -> Printf.sprintf "pid:%d" (Unix.getpid ())
  in
  { fd; closed = false; origin; last_timing = None; last_request_id = None }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let last_timing t = t.last_timing
let last_request_id t = t.last_request_id

(* Graft the server's phase timings into the client's open span tree.
   Only durations travel on the wire, so no cross-process clock
   agreement is needed: the server block is anchored inside the
   client-observed [t_send, t_recv] window — at [t_recv - (wait+exec)],
   clamped to [t_send] — which attributes any residual gap to the
   transport rather than inventing negative time. *)
let stitch ~t_send ~t_recv (tm : Wire.timing) =
  let total = tm.Wire.tm_queue_wait_s +. tm.Wire.tm_exec_s in
  let anchor = Stdlib.max t_send (t_recv -. total) in
  let args = [ ("request_id", Wire.hex_of_id tm.Wire.tm_request_id) ] in
  let exec_start = anchor +. tm.Wire.tm_queue_wait_s in
  Span.add_external ~name:"server.queue.wait" ~start_s:anchor
    ~dur_s:tm.Wire.tm_queue_wait_s ~args ~domain:server_track ();
  Span.add_external ~name:"server.exec" ~start_s:exec_start ~dur_s:tm.Wire.tm_exec_s
    ~args ~domain:server_track ();
  List.iter
    (fun (name, off_s, dur_s) ->
      Span.add_external ~name ~start_s:(exec_start +. off_s) ~dur_s ~args
        ~domain:server_track ())
    tm.Wire.tm_phases

(* The reply comes from outside the program: a [Batch_ok] that does not
   hold exactly one verdict per member sent is malformed, not a verdict. *)
let check_reply req resp =
  match (req, resp) with
  | Wire.Batch_verify { items; _ }, Wire.Batch_ok verdicts
    when List.length verdicts <> List.length items ->
    Error
      (Wire.Malformed
         (Printf.sprintf "Batch_ok holds %d verdicts for %d members"
            (List.length verdicts) (List.length items)))
  | _ -> Ok resp

let request t req : (Wire.response, Wire.error) result =
  let request_id = fresh_request_id () in
  t.last_request_id <- Some request_id;
  t.last_timing <- None;
  let trace = Some { Wire.tr_request_id = request_id; tr_origin = t.origin } in
  let send_recv () =
    let t_send = Span.now () in
    Wire.write_frame t.fd (Wire.Request (trace, req));
    match Wire.read_frame t.fd with
    | Ok (Wire.Response (timing, resp)) ->
      let t_recv = Span.now () in
      t.last_timing <- timing;
      (match timing with
       | Some tm when Span.recording () -> stitch ~t_send ~t_recv tm
       | _ -> ());
      check_reply req resp
    | Ok (Wire.Request _) -> Error (Wire.Malformed "server sent a request frame")
    | Error e -> Error e
  in
  if Span.recording () then
    Span.with_span
      ~args:[ ("request_id", Wire.hex_of_id request_id) ]
      "client.request" send_recv
  else send_recv ()

let request_exn t req =
  match request t req with
  | Ok (Wire.Error { code; message }) ->
    failwith
      (Printf.sprintf "server error (%s): %s" (Wire.error_code_to_string code) message)
  | Ok resp -> resp
  | Error e -> failwith ("transport error: " ^ Wire.error_to_string e)

let with_connection ?origin path f =
  let t = connect ?origin path in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
