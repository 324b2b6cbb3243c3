module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Cs = Api.Cs
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Sha256 = Zkvc_hash.Sha256

type t =
  { capacity : int;
    dir : string option;
    mutable entries : Wire.key_file list; (* most recently used first *)
    lock : Mutex.t;
    (* per-key single-flight: ids whose keygen (or disk load) is running
       right now. A second worker missing on the same id blocks on
       [flight_done] instead of running keygen again, then finds the
       first worker's entry in memory — recorded as a hit. *)
    inflight : (string, unit) Hashtbl.t;
    flight_done : Condition.t }

let default_capacity = 8

let create ?(capacity = default_capacity) ?dir () =
  if capacity < 1 then invalid_arg "Key_cache.create: capacity must be positive";
  Option.iter (fun d -> if not (Sys.file_exists d) then Unix.mkdir d 0o755) dir;
  { capacity;
    dir;
    entries = [];
    lock = Mutex.create ();
    inflight = Hashtbl.create 4;
    flight_done = Condition.create () }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let length t = with_lock t (fun () -> List.length t.entries)

let ids t = with_lock t (fun () -> List.map (fun e -> e.Wire.kf_key_id) t.entries)

(* The id digests everything the keys depend on. The constraint system is
   folded term by term (wire index + canonical coefficient bytes), so any
   coefficient difference — e.g. a different CRPC challenge — yields a
   different id. *)
let id_of backend strategy dims (prep : Api.prepared) =
  let cs = prep.Api.cs in
  let ctx = Sha256.init () in
  let u32 n =
    let b = Bytes.create 4 in
    Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
    Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
    Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
    Bytes.set_uint8 b 3 (n land 0xff);
    Sha256.update ctx b
  in
  Sha256.update_string ctx "zkvc-key-id-v1";
  Sha256.update_string ctx
    (match backend with Api.Backend_groth16 -> "g" | Api.Backend_spartan -> "s");
  Sha256.update_string ctx
    (match strategy with
     | Mc.Vanilla -> "v"
     | Mc.Vanilla_psq -> "vp"
     | Mc.Crpc -> "c"
     | Mc.Crpc_psq -> "cp");
  u32 dims.Mspec.a;
  u32 dims.Mspec.n;
  u32 dims.Mspec.b;
  (match prep.Api.challenge with
   | None -> Sha256.update_string ctx "_"
   | Some z -> Sha256.update ctx (Fr.to_bytes z));
  (* the former build-config slot; absorbing its constant keeps existing ids *)
  Sha256.update_string ctx "_";
  u32 cs.Cs.num_inputs;
  u32 cs.Cs.num_aux;
  u32 (Array.length cs.Cs.constraints);
  let lc l =
    let terms = Cs.L.terms l in
    u32 (List.length terms);
    List.iter
      (fun (v, c) ->
        u32 v;
        Sha256.update ctx (Fr.to_bytes c))
      terms
  in
  Array.iter
    (fun { Cs.a; b; c; label = _ } ->
      lc a;
      lc b;
      lc c)
    cs.Cs.constraints;
  Bytes.to_string (Sha256.finalize ctx)

(* the record [key_file] builds, for a caller that already holds the id *)
let with_id id backend strategy dims (prep : Api.prepared) keys =
  { Wire.kf_backend = backend;
    kf_strategy = strategy;
    kf_dims = dims;
    kf_challenge = prep.Api.challenge;
    kf_key_id = id;
    kf_keys = keys }

let key_file backend strategy dims prep keys =
  with_id (id_of backend strategy dims prep) backend strategy dims prep keys

let spill_path t id =
  Option.map (fun d -> Filename.concat d (Wire.hex_of_id id ^ ".zkvk")) t.dir

let write_file path bytes =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_bytes oc bytes;
  close_out oc;
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let spill t (kf : Wire.key_file) =
  match spill_path t kf.Wire.kf_key_id with
  | Some path when not (Sys.file_exists path) -> write_file path (Wire.encode_key_file kf)
  | Some _ | None -> ()

let load_from_disk t id =
  match spill_path t id with
  | Some path when Sys.file_exists path -> (
    match Wire.decode_key_file (read_file path) with
    | Ok kf when kf.Wire.kf_key_id = id -> Some kf
    | Ok _ | Error _ -> None
    | exception Sys_error _ -> None)
  | Some _ | None -> None

(* assumes the lock is held *)
let insert_locked t e =
  let id = e.Wire.kf_key_id in
  t.entries <- e :: List.filter (fun e' -> e'.Wire.kf_key_id <> id) t.entries;
  let rec trim n = function
    | [] -> []
    | _ :: _ when n = 0 -> []
    | x :: rest -> x :: trim (n - 1) rest
  in
  t.entries <- trim t.capacity t.entries

let promote_locked t id =
  match List.partition (fun e -> e.Wire.kf_key_id = id) t.entries with
  | [ e ], rest ->
    t.entries <- e :: rest;
    Some e
  | _ -> None

(* Make (or load) the entry for [id], with this caller owning the
   single-flight slot for it. Runs [fresh]/disk IO outside the lock. *)
let fill_inflight t id ~fresh =
  let settle result =
    Mutex.lock t.lock;
    (match result with Some e -> insert_locked t e | None -> ());
    Hashtbl.remove t.inflight id;
    Condition.broadcast t.flight_done;
    Mutex.unlock t.lock
  in
  match
    match load_from_disk t id with
    | Some e -> (e, `Hit_disk)
    | None ->
      let e = fresh () in
      spill t e;
      (e, `Miss)
  with
  | e, outcome ->
    settle (Some e);
    (e, outcome)
  | exception ex ->
    (* release the slot so a waiter can retry (and surface its own
       failure) instead of blocking forever *)
    settle None;
    raise ex

let find_or_add t backend strategy dims prep ~make =
  let id = id_of backend strategy dims prep in
  Mutex.lock t.lock;
  let rec get () =
    match promote_locked t id with
    | Some e ->
      Mutex.unlock t.lock;
      (e, `Hit_mem)
    | None ->
      if Hashtbl.mem t.inflight id then begin
        (* another worker is generating this key: wait for it, then the
           promote above finds its entry — a memory hit, keygen ran once *)
        Condition.wait t.flight_done t.lock;
        get ()
      end
      else begin
        Hashtbl.add t.inflight id ();
        Mutex.unlock t.lock;
        fill_inflight t id ~fresh:(fun () ->
            with_id id backend strategy dims prep (make ()))
      end
  in
  get ()

let find_by_id t id =
  match with_lock t (fun () -> promote_locked t id) with
  | Some e -> Some e
  | None -> (
    match load_from_disk t id with
    | Some e ->
      with_lock t (fun () -> insert_locked t e);
      Some e
    | None -> None)
