(** Binary wire protocol of the zkVC proof service. See the
    interface for the frame layout. Decoding is total: a private [Fail]
    exception carries the error to the entry points, every read is
    bounds-checked against the declared payload, and every scalar/point
    is validated on parse. *)

module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Groth16 = Zkvc_groth16.Groth16
module Spartan = Zkvc_spartan.Spartan
module Sha256 = Zkvc_hash.Sha256

type error =
  | Eof
  | Bad_magic
  | Unsupported_version of int
  | Truncated
  | Oversized of int
  | Bad_tag of { what : string; tag : int }
  | Malformed of string

let error_to_string = function
  | Eof -> "connection closed"
  | Bad_magic -> "bad magic"
  | Unsupported_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Truncated -> "truncated input"
  | Oversized n -> Printf.sprintf "declared length %d exceeds the frame bound" n
  | Bad_tag { what; tag } -> Printf.sprintf "unknown %s tag %d" what tag
  | Malformed msg -> Printf.sprintf "malformed payload: %s" msg

exception Fail of error

let fail e = raise (Fail e)

let magic = "ZKVC"
let version = 3
let max_payload = 1 lsl 26 (* 64 MiB *)
let header_bytes = 10
let key_id_bytes = 32
let request_id_bytes = 16
let fr_bytes = 32

(* wire sanity bounds on the trace/timing blocks *)
let max_origin_bytes = 256
let max_phases = 256
let max_phase_name_bytes = 128

(* service sanity bound on matrix dimensions coming off the wire *)
let max_dim = 1 lsl 16
let max_matrix_cells = 1 lsl 22

type prove_input =
  | Seeded of { seed : int; bound : int }
  | Explicit of { seed : int; x : Fr.t array array; w : Fr.t array array }

(* trace context: a client-chosen request id carried on requests and
   echoed back inside the response timing block. *)
type trace = { tr_request_id : string; tr_origin : string }

type timing =
  { tm_request_id : string;
    tm_queue_wait_s : float;
    tm_exec_s : float;
    tm_phases : (string * float * float) list }

type request =
  | Keygen of
      { backend : Api.backend;
        strategy : Mc.strategy;
        dims : Mspec.dims;
        seed : int;
        bound : int;
        deadline_ms : int }
  | Prove of
      { backend : Api.backend;
        strategy : Mc.strategy;
        dims : Mspec.dims;
        input : prove_input;
        deadline_ms : int }
  | Verify of
      { key_id : string;
        public_inputs : Fr.t list;
        proof : Api.proof;
        deadline_ms : int }
  | Batch_verify of
      { key_id : string;
        items : (Fr.t list * Api.proof) list;
        deadline_ms : int }
  | Status
  | Status_detail
  | Shutdown

type status =
  { uptime_s : float;
    requests : int;
    queue_depth : int;
    queue_capacity : int;
    cache_hits : int;
    cache_misses : int;
    cache_entries : int;
    timeouts : int;
    rejections : int;
    batched : int;
    (* scheduler block: worker-pool size/occupancy and queued jobs by
       request kind *)
    workers : int;
    workers_busy : int;
    queue_depth_verify : int;
    queue_depth_prove : int }

type error_code =
  | Queue_full
  | Deadline_exceeded
  | Bad_request
  | Unknown_key
  | Shutting_down
  | Internal

let error_code_to_string = function
  | Queue_full -> "queue-full"
  | Deadline_exceeded -> "deadline-exceeded"
  | Bad_request -> "bad-request"
  | Unknown_key -> "unknown-key"
  | Shutting_down -> "shutting-down"
  | Internal -> "internal"

type response =
  | Keygen_ok of { key_id : string; cache_hit : bool; key_bytes : Bytes.t }
  | Prove_ok of
      { key_id : string;
        cache_hit : bool;
        challenge : Fr.t option;
        public_inputs : Fr.t list;
        proof : Api.proof;
        prove_s : float }
  | Verify_ok of bool
  | Batch_ok of bool list
  | Status_ok of status
  | Status_detail_ok of
      { status : status; metrics_text : string; flight_jsonl : string }
  | Shutdown_ok
  | Error of { code : error_code; message : string }

type frame =
  | Request of trace option * request
  | Response of timing option * response

type meta = { payload_bytes : int }

(* ---------------- encoding primitives ---------------- *)

let w_u8 buf n = Buffer.add_char buf (Char.chr (n land 0xff))

let w_u32 buf n =
  w_u8 buf (n lsr 24);
  w_u8 buf (n lsr 16);
  w_u8 buf (n lsr 8);
  w_u8 buf n

let w_i64_bits buf n =
  for i = 7 downto 0 do
    w_u8 buf (Int64.to_int (Int64.logand (Int64.shift_right_logical n (8 * i)) 0xffL))
  done

let w_i64 buf n = w_i64_bits buf (Int64.of_int n)

(* the full 64 bits travel: OCaml ints are 63-bit, so floats must not
   round-trip through [int] (bit 62 would leak into the sign) *)
let w_f64 buf x = w_i64_bits buf (Int64.bits_of_float x)

let w_bool buf b = w_u8 buf (if b then 1 else 0)

let w_lp_bytes buf b =
  w_u32 buf (Bytes.length b);
  Buffer.add_bytes buf b

let w_lp_string buf s =
  w_u32 buf (String.length s);
  Buffer.add_string buf s

let w_fr buf x = Buffer.add_bytes buf (Fr.to_bytes x)

let w_key_id buf id =
  assert (String.length id = key_id_bytes);
  Buffer.add_string buf id

let w_backend buf = function
  | Api.Backend_groth16 -> w_u8 buf 0
  | Api.Backend_spartan -> w_u8 buf 1

let w_strategy buf (s : Mc.strategy) =
  w_u8 buf (match s with Vanilla -> 0 | Vanilla_psq -> 1 | Crpc -> 2 | Crpc_psq -> 3)

let w_dims buf { Mspec.a; n; b } =
  w_u32 buf a;
  w_u32 buf n;
  w_u32 buf b

let w_fr_opt buf = function
  | None -> w_u8 buf 0
  | Some x ->
    w_u8 buf 1;
    w_fr buf x

let w_fr_list buf l =
  w_u32 buf (List.length l);
  List.iter (w_fr buf) l

let w_matrix buf m =
  let rows = Array.length m in
  let cols = if rows = 0 then 0 else Array.length m.(0) in
  w_u32 buf rows;
  w_u32 buf cols;
  Array.iter (fun row -> Array.iter (w_fr buf) row) m

let w_proof buf = function
  | Api.Groth16_proof p ->
    w_u8 buf 0;
    w_lp_bytes buf (Groth16.proof_to_bytes p)
  | Api.Spartan_proof p ->
    w_u8 buf 1;
    w_lp_bytes buf (Spartan.proof_to_bytes p)

(* ---------------- decoding primitives ---------------- *)

type cursor = { buf : Bytes.t; mutable pos : int; limit : int }

let cursor_of_bytes b = { buf = b; pos = 0; limit = Bytes.length b }

let remaining c = c.limit - c.pos

let need c n = if remaining c < n then fail Truncated

let r_u8 c =
  need c 1;
  let n = Char.code (Bytes.get c.buf c.pos) in
  c.pos <- c.pos + 1;
  n

let r_u32 c =
  need c 4;
  let b i = Char.code (Bytes.get c.buf (c.pos + i)) in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  n

let r_i64_bits c =
  need c 8;
  let n = ref 0L in
  for i = 0 to 7 do
    n := Int64.logor (Int64.shift_left !n 8)
           (Int64.of_int (Char.code (Bytes.get c.buf (c.pos + i))))
  done;
  c.pos <- c.pos + 8;
  !n

let r_i64 c = Int64.to_int (r_i64_bits c)

let r_f64 c = Int64.float_of_bits (r_i64_bits c)

let r_bool c =
  match r_u8 c with
  | 0 -> false
  | 1 -> true
  | tag -> fail (Bad_tag { what = "bool"; tag })

let r_fixed c n =
  need c n;
  let b = Bytes.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  b

let r_lp_bytes c =
  let n = r_u32 c in
  if n > remaining c then fail Truncated;
  r_fixed c n

let r_lp_string c = Bytes.to_string (r_lp_bytes c)

let r_fr c =
  match Fr.of_bytes_exn (r_fixed c fr_bytes) with
  | x -> x
  | exception Invalid_argument msg -> fail (Malformed msg)

let r_key_id c = Bytes.to_string (r_fixed c key_id_bytes)

let r_backend c =
  match r_u8 c with
  | 0 -> Api.Backend_groth16
  | 1 -> Api.Backend_spartan
  | tag -> fail (Bad_tag { what = "backend"; tag })

let r_strategy c : Mc.strategy =
  match r_u8 c with
  | 0 -> Vanilla
  | 1 -> Vanilla_psq
  | 2 -> Crpc
  | 3 -> Crpc_psq
  | tag -> fail (Bad_tag { what = "strategy"; tag })

let r_dims c =
  let a = r_u32 c in
  let n = r_u32 c in
  let b = r_u32 c in
  if a < 1 || n < 1 || b < 1 || a > max_dim || n > max_dim || b > max_dim then
    fail (Malformed "dims out of range");
  { Mspec.a; n; b }

let r_fr_opt c = if r_bool c then Some (r_fr c) else None

let r_fr_list c =
  let n = r_u32 c in
  if n > remaining c / fr_bytes then fail Truncated;
  List.init n (fun _ -> r_fr c)

let r_matrix c =
  let rows = r_u32 c in
  let cols = r_u32 c in
  if rows < 1 || cols < 1 || rows > max_dim || cols > max_dim
     || rows * cols > max_matrix_cells then
    fail (Malformed "matrix dimensions out of range");
  if rows * cols > remaining c / fr_bytes then fail Truncated;
  Array.init rows (fun _ -> Array.init cols (fun _ -> r_fr c))

let r_proof c =
  let tag = r_u8 c in
  let b = r_lp_bytes c in
  match tag with
  | 0 ->
    (try Api.Groth16_proof (Groth16.proof_of_bytes_exn b)
     with Invalid_argument msg -> fail (Malformed msg))
  | 1 ->
    (try Api.Spartan_proof (Spartan.proof_of_bytes_exn b)
     with Invalid_argument msg -> fail (Malformed msg))
  | tag -> fail (Bad_tag { what = "proof backend"; tag })

let finished c what = if remaining c <> 0 then fail (Malformed ("trailing bytes in " ^ what))

(* ---------------- trace / timing blocks ---------------- *)

let w_trace buf = function
  | None -> w_u8 buf 0
  | Some { tr_request_id; tr_origin } ->
    if String.length tr_request_id <> request_id_bytes then
      invalid_arg "Wire: trace request id must be 16 bytes";
    if String.length tr_origin > max_origin_bytes then
      invalid_arg "Wire: trace origin too long";
    w_u8 buf 1;
    Buffer.add_string buf tr_request_id;
    w_lp_string buf tr_origin

let r_trace c =
  if r_bool c then begin
    let tr_request_id = Bytes.to_string (r_fixed c request_id_bytes) in
    let tr_origin = r_lp_string c in
    if String.length tr_origin > max_origin_bytes then
      fail (Malformed "trace origin too long");
    Some { tr_request_id; tr_origin }
  end
  else None

let w_timing buf = function
  | None -> w_u8 buf 0
  | Some { tm_request_id; tm_queue_wait_s; tm_exec_s; tm_phases } ->
    if String.length tm_request_id <> request_id_bytes then
      invalid_arg "Wire: timing request id must be 16 bytes";
    if List.length tm_phases > max_phases then
      invalid_arg "Wire: too many timing phases";
    w_u8 buf 1;
    Buffer.add_string buf tm_request_id;
    w_f64 buf tm_queue_wait_s;
    w_f64 buf tm_exec_s;
    w_u32 buf (List.length tm_phases);
    List.iter
      (fun (name, off_s, dur_s) ->
        if String.length name > max_phase_name_bytes then
          invalid_arg "Wire: timing phase name too long";
        w_lp_string buf name;
        w_f64 buf off_s;
        w_f64 buf dur_s)
      tm_phases

let r_timing c =
  if r_bool c then begin
    let tm_request_id = Bytes.to_string (r_fixed c request_id_bytes) in
    let tm_queue_wait_s = r_f64 c in
    let tm_exec_s = r_f64 c in
    let n = r_u32 c in
    if n > max_phases then fail (Malformed "too many timing phases");
    let tm_phases =
      List.init n (fun _ ->
          let name = r_lp_string c in
          if String.length name > max_phase_name_bytes then
            fail (Malformed "timing phase name too long");
          let off_s = r_f64 c in
          let dur_s = r_f64 c in
          (name, off_s, dur_s))
    in
    Some { tm_request_id; tm_queue_wait_s; tm_exec_s; tm_phases }
  end
  else None

(* ---------------- payloads ---------------- *)

let kind_of_frame = function
  | Request (_, Keygen _) -> 0x01
  | Request (_, Prove _) -> 0x02
  | Request (_, Verify _) -> 0x03
  | Request (_, Batch_verify _) -> 0x04
  | Request (_, Status) -> 0x05
  | Request (_, Shutdown) -> 0x06
  | Request (_, Status_detail) -> 0x07
  | Response (_, Keygen_ok _) -> 0x81
  | Response (_, Prove_ok _) -> 0x82
  | Response (_, Verify_ok _) -> 0x83
  | Response (_, Batch_ok _) -> 0x84
  | Response (_, Status_ok _) -> 0x85
  | Response (_, Shutdown_ok) -> 0x86
  | Response (_, Status_detail_ok _) -> 0x87
  | Response (_, Error _) -> 0xff

let w_status buf s =
  w_f64 buf s.uptime_s;
  w_i64 buf s.requests;
  w_u32 buf s.queue_depth;
  w_u32 buf s.queue_capacity;
  w_i64 buf s.cache_hits;
  w_i64 buf s.cache_misses;
  w_u32 buf s.cache_entries;
  w_i64 buf s.timeouts;
  w_i64 buf s.rejections;
  w_i64 buf s.batched;
  w_u32 buf s.workers;
  w_u32 buf s.workers_busy;
  w_u32 buf s.queue_depth_verify;
  w_u32 buf s.queue_depth_prove

let encode_request buf = function
  | Keygen { backend; strategy; dims; seed; bound; deadline_ms } ->
    w_backend buf backend;
    w_strategy buf strategy;
    w_dims buf dims;
    w_i64 buf seed;
    w_u32 buf bound;
    w_u32 buf deadline_ms
  | Prove { backend; strategy; dims; input; deadline_ms } ->
    w_backend buf backend;
    w_strategy buf strategy;
    w_dims buf dims;
    w_u32 buf deadline_ms;
    (match input with
     | Seeded { seed; bound } ->
       w_u8 buf 0;
       w_i64 buf seed;
       w_u32 buf bound
     | Explicit { seed; x; w } ->
       w_u8 buf 1;
       w_i64 buf seed;
       w_matrix buf x;
       w_matrix buf w)
  | Verify { key_id; public_inputs; proof; deadline_ms } ->
    w_key_id buf key_id;
    w_u32 buf deadline_ms;
    w_fr_list buf public_inputs;
    w_proof buf proof
  | Batch_verify { key_id; items; deadline_ms } ->
    w_key_id buf key_id;
    w_u32 buf deadline_ms;
    w_u32 buf (List.length items);
    List.iter
      (fun (io, proof) ->
        w_fr_list buf io;
        w_proof buf proof)
      items
  | Status | Status_detail | Shutdown -> ()

let encode_response buf = function
  | Keygen_ok { key_id; cache_hit; key_bytes } ->
    w_key_id buf key_id;
    w_bool buf cache_hit;
    w_lp_bytes buf key_bytes
  | Prove_ok { key_id; cache_hit; challenge; public_inputs; proof; prove_s } ->
    w_key_id buf key_id;
    w_bool buf cache_hit;
    w_fr_opt buf challenge;
    w_fr_list buf public_inputs;
    w_proof buf proof;
    w_f64 buf prove_s
  | Verify_ok ok -> w_bool buf ok
  | Batch_ok oks ->
    w_u32 buf (List.length oks);
    List.iter (w_bool buf) oks
  | Status_ok s -> w_status buf s
  | Status_detail_ok { status; metrics_text; flight_jsonl } ->
    w_status buf status;
    w_lp_string buf metrics_text;
    w_lp_string buf flight_jsonl
  | Shutdown_ok -> ()
  | Error { code; message } ->
    w_u8 buf
      (match code with
       | Queue_full -> 0
       | Deadline_exceeded -> 1
       | Bad_request -> 2
       | Unknown_key -> 3
       | Shutting_down -> 4
       | Internal -> 5);
    w_lp_string buf message

(* The payload prefixes the kind-specific body with an optional trace
   block (requests) or timing block (responses). *)
let encode_payload buf = function
  | Request (trace, req) ->
    w_trace buf trace;
    encode_request buf req
  | Response (timing, resp) ->
    w_timing buf timing;
    encode_response buf resp

let r_status c =
  let uptime_s = r_f64 c in
  let requests = r_i64 c in
  let queue_depth = r_u32 c in
  let queue_capacity = r_u32 c in
  let cache_hits = r_i64 c in
  let cache_misses = r_i64 c in
  let cache_entries = r_u32 c in
  let timeouts = r_i64 c in
  let rejections = r_i64 c in
  let batched = r_i64 c in
  let workers = r_u32 c in
  let workers_busy = r_u32 c in
  let queue_depth_verify = r_u32 c in
  let queue_depth_prove = r_u32 c in
  { uptime_s; requests; queue_depth; queue_capacity; cache_hits;
    cache_misses; cache_entries; timeouts; rejections; batched;
    workers; workers_busy; queue_depth_verify; queue_depth_prove }

let decode_payload kind c =
  (* the trace/timing prefix comes before the kind-specific body *)
  let trace = if kind < 0x80 then r_trace c else None in
  let timing = if kind >= 0x80 then r_timing c else None in
  let request r = Request (trace, r) in
  let response r = Response (timing, r) in
  let frame =
    match kind with
    | 0x01 ->
      let backend = r_backend c in
      let strategy = r_strategy c in
      let dims = r_dims c in
      let seed = r_i64 c in
      let bound = r_u32 c in
      let deadline_ms = r_u32 c in
      request (Keygen { backend; strategy; dims; seed; bound; deadline_ms })
    | 0x02 ->
      let backend = r_backend c in
      let strategy = r_strategy c in
      let dims = r_dims c in
      let deadline_ms = r_u32 c in
      let input =
        match r_u8 c with
        | 0 ->
          let seed = r_i64 c in
          let bound = r_u32 c in
          Seeded { seed; bound }
        | 1 ->
          let seed = r_i64 c in
          let x = r_matrix c in
          let w = r_matrix c in
          Explicit { seed; x; w }
        | tag -> fail (Bad_tag { what = "prove input"; tag })
      in
      request (Prove { backend; strategy; dims; input; deadline_ms })
    | 0x03 ->
      let key_id = r_key_id c in
      let deadline_ms = r_u32 c in
      let public_inputs = r_fr_list c in
      let proof = r_proof c in
      request (Verify { key_id; public_inputs; proof; deadline_ms })
    | 0x04 ->
      let key_id = r_key_id c in
      let deadline_ms = r_u32 c in
      let n = r_u32 c in
      if n > remaining c then fail Truncated;
      let items =
        List.init n (fun _ ->
            let io = r_fr_list c in
            let proof = r_proof c in
            (io, proof))
      in
      request (Batch_verify { key_id; items; deadline_ms })
    | 0x05 -> request Status
    | 0x06 -> request Shutdown
    | 0x07 -> request Status_detail
    | 0x81 ->
      let key_id = r_key_id c in
      let cache_hit = r_bool c in
      let key_bytes = r_lp_bytes c in
      response (Keygen_ok { key_id; cache_hit; key_bytes })
    | 0x82 ->
      let key_id = r_key_id c in
      let cache_hit = r_bool c in
      let challenge = r_fr_opt c in
      let public_inputs = r_fr_list c in
      let proof = r_proof c in
      let prove_s = r_f64 c in
      response (Prove_ok { key_id; cache_hit; challenge; public_inputs; proof; prove_s })
    | 0x83 -> response (Verify_ok (r_bool c))
    | 0x84 ->
      let n = r_u32 c in
      if n > remaining c then fail Truncated;
      response (Batch_ok (List.init n (fun _ -> r_bool c)))
    | 0x85 -> response (Status_ok (r_status c))
    | 0x86 -> response Shutdown_ok
    | 0x87 ->
      let status = r_status c in
      let metrics_text = r_lp_string c in
      let flight_jsonl = r_lp_string c in
      response (Status_detail_ok { status; metrics_text; flight_jsonl })
    | 0xff ->
      let code =
        match r_u8 c with
        | 0 -> Queue_full
        | 1 -> Deadline_exceeded
        | 2 -> Bad_request
        | 3 -> Unknown_key
        | 4 -> Shutting_down
        | 5 -> Internal
        | tag -> fail (Bad_tag { what = "error code"; tag })
      in
      let message = r_lp_string c in
      response (Error { code; message })
    | tag -> fail (Bad_tag { what = "frame kind"; tag })
  in
  finished c "frame payload";
  frame

(* ---------------- frames ---------------- *)

let encode_frame frame =
  let payload = Buffer.create 256 in
  encode_payload payload frame;
  let n = Buffer.length payload in
  if n > max_payload then invalid_arg "Wire.encode_frame: payload exceeds max_payload";
  let buf = Buffer.create (header_bytes + n) in
  Buffer.add_string buf magic;
  w_u8 buf version;
  w_u8 buf (kind_of_frame frame);
  w_u32 buf n;
  Buffer.add_buffer buf payload;
  Buffer.to_bytes buf

let check_magic c m = if Bytes.to_string (r_fixed c 4) <> m then fail Bad_magic

(* this build speaks exactly one version, for frames and codec files alike *)
let check_version c =
  let v = r_u8 c in
  if v <> version then fail (Unsupported_version v)

let check_header c =
  check_magic c magic;
  check_version c;
  let kind = r_u8 c in
  let len = r_u32 c in
  if len > max_payload then fail (Oversized len);
  (kind, len)

let decode_frame' bytes =
  try
    let c = cursor_of_bytes bytes in
    let kind, len = check_header c in
    if remaining c < len then fail Truncated;
    if remaining c > len then fail (Malformed "trailing bytes after frame");
    Ok (decode_payload kind c, { payload_bytes = len })
  with Fail e -> Error e

let decode_frame bytes = Result.map fst (decode_frame' bytes)

(* ---------------- blocking IO ---------------- *)

let rec write_all fd b pos len =
  if len > 0 then begin
    let n =
      try Unix.write fd b pos len with
      | Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (pos + n) (len - n)
  end

let write_frame fd frame =
  let b = encode_frame frame in
  write_all fd b 0 (Bytes.length b)

(* [Error Eof] only when the peer closes before the first byte of a
   frame; a mid-frame close is [Truncated]. *)
let read_exact fd n ~at_start : (Bytes.t, error) result =
  let b = Bytes.create n in
  let rec go pos =
    if pos = n then Ok b
    else
      match Unix.read fd b pos (n - pos) with
      | 0 -> Error (if pos = 0 && at_start then Eof else Truncated)
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
  in
  go 0

let read_frame' fd : (frame * meta, error) result =
  match read_exact fd header_bytes ~at_start:true with
  | Error e -> Error e
  | Ok header ->
    (try
       let c = cursor_of_bytes header in
       let kind, len = check_header c in
       match read_exact fd len ~at_start:false with
       | Error e -> Error e
       | Ok payload -> Ok (decode_payload kind (cursor_of_bytes payload), { payload_bytes = len })
     with Fail e -> Error e)

let read_frame fd : (frame, error) result = Result.map fst (read_frame' fd)

(* ---------------- codec files ---------------- *)

type proof_file =
  { pf_backend : Api.backend;
    pf_strategy : Mc.strategy;
    pf_dims : Mspec.dims;
    pf_challenge : Fr.t option;
    pf_key_id : string;
    pf_public_inputs : Fr.t list;
    pf_proof : Api.proof }

let proof_file_magic = "ZKVP"

let encode_proof_file pf =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf proof_file_magic;
  w_u8 buf version;
  w_backend buf pf.pf_backend;
  w_strategy buf pf.pf_strategy;
  w_dims buf pf.pf_dims;
  w_fr_opt buf pf.pf_challenge;
  w_key_id buf pf.pf_key_id;
  w_fr_list buf pf.pf_public_inputs;
  w_proof buf pf.pf_proof;
  Buffer.to_bytes buf

let decode_proof_file bytes =
  try
    let c = cursor_of_bytes bytes in
    check_magic c proof_file_magic;
    check_version c;
    let pf_backend = r_backend c in
    let pf_strategy = r_strategy c in
    let pf_dims = r_dims c in
    let pf_challenge = r_fr_opt c in
    let pf_key_id = r_key_id c in
    let pf_public_inputs = r_fr_list c in
    let pf_proof = r_proof c in
    finished c "proof file";
    Ok { pf_backend; pf_strategy; pf_dims; pf_challenge; pf_key_id;
         pf_public_inputs; pf_proof }
  with Fail e -> Error e

type key_file =
  { kf_backend : Api.backend;
    kf_strategy : Mc.strategy;
    kf_dims : Mspec.dims;
    kf_challenge : Fr.t option;
    kf_key_id : string;
    kf_keys : Api.keys }

let key_file_magic = "ZKVK"

let encode_key_file kf =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf key_file_magic;
  w_u8 buf version;
  w_backend buf kf.kf_backend;
  w_strategy buf kf.kf_strategy;
  w_dims buf kf.kf_dims;
  w_fr_opt buf kf.kf_challenge;
  w_key_id buf kf.kf_key_id;
  (match kf.kf_keys with
   | Api.Groth16_keys { pk; vk; _ } ->
     w_lp_bytes buf (Groth16.verifying_key_to_bytes vk);
     w_lp_bytes buf (Groth16.proving_key_to_bytes pk)
   | Api.Spartan_keys { key; _ } -> w_lp_bytes buf (Spartan.key_to_bytes key));
  Buffer.to_bytes buf

(* The circuit-derived halves (QAP, Spartan instance) are resynthesised
   from the stored (strategy, dims, challenge) descriptor — the circuit
   shape is a pure function of those (see [Api.circuit_shape]). *)
let decode_key_file bytes =
  try
    let c = cursor_of_bytes bytes in
    check_magic c key_file_magic;
    check_version c;
    let kf_backend = r_backend c in
    let kf_strategy = r_strategy c in
    let kf_dims = r_dims c in
    let kf_challenge = r_fr_opt c in
    let kf_key_id = r_key_id c in
    let raw =
      match kf_backend with
      | Api.Backend_groth16 ->
        let vk_b = r_lp_bytes c in
        let pk_b = r_lp_bytes c in
        `Groth16 (vk_b, pk_b)
      | Api.Backend_spartan -> `Spartan (r_lp_bytes c)
    in
    let shape () =
      try Api.circuit_shape kf_strategy ?challenge:kf_challenge kf_dims
      with Invalid_argument msg -> fail (Malformed msg)
    in
    let kf_keys =
      match raw with
      | `Groth16 (vk_b, pk_b) ->
        (try
           let vk = Groth16.verifying_key_of_bytes_exn vk_b in
           let pk = Groth16.proving_key_of_bytes_exn pk_b in
           Api.Groth16_keys { qap = Groth16.Qap.create (shape ()); pk; vk }
         with Invalid_argument msg -> fail (Malformed msg))
      | `Spartan key_b ->
        (try
           let key = Spartan.key_of_bytes_exn key_b in
           Api.Spartan_keys { inst = Spartan.preprocess (shape ()); key }
         with Invalid_argument msg -> fail (Malformed msg))
    in
    finished c "key file";
    Ok { kf_backend; kf_strategy; kf_dims; kf_challenge; kf_key_id; kf_keys }
  with Fail e -> Error e

let hex_of_id id = Sha256.to_hex (Bytes.of_string id)
