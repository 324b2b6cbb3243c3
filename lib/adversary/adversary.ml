module Fr = Zkvc_field.Fr
module G1 = Zkvc_curve.G1
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec = Mspec.Make (Fr)
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module McM = Mc.Make (Fr)
module Groth16 = Zkvc_groth16.Groth16
module Spartan = Zkvc_spartan.Spartan
module Wire = Zkvc_serve.Wire
module Key_cache = Zkvc_serve.Key_cache
module Batch = Zkvc_serve.Batch

type target =
  { backend : Api.backend;
    strategy : Mc.strategy;
    dims : Mspec.dims;
    seed : int }

type outcome =
  | Rejected
  | Rejected_error of string
  | Accepted
  | Crashed of string

let outcome_is_sound = function
  | Rejected | Rejected_error _ -> true
  | Accepted | Crashed _ -> false

type case =
  { family : string;
    mutation : string;
    outcome : outcome;
    detail : string }

let case_name c = c.family ^ "." ^ c.mutation

type report =
  { target : target;
    honest_verified : bool;
    cases : case list }

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  if n = 0 then true
  else begin
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  end

(* ---- fixture: one honestly proved statement per target ---- *)

type fixture =
  { t : target;
    x : Fr.t array array;
    w : Fr.t array array;
    prep : Api.prepared;
    keys : Api.keys;
    proof : Api.proof;
    public_inputs : Fr.t list }

(* Independent deterministic streams so adding mutations to one family
   never shifts the randomness another family sees. *)
let stream t salt = Random.State.make [| t.seed; salt |]

let make_fixture t =
  let rng = stream t 0 in
  let d = t.dims in
  let x, w = Spec.random_statement rng ~bound:256 d in
  let prep = Api.prepare t.strategy ~x ~w d in
  let keys = Api.keygen ~rng t.backend prep.Api.cs in
  let proof = Api.prove_with ~rng keys prep.Api.assignment in
  let public_inputs = Api.Cs.public_inputs prep.Api.cs prep.Api.assignment in
  { t; x; w; prep; keys; proof; public_inputs }

let verify_fixture fx proof = Api.verify_with fx.keys ~public_inputs:fx.public_inputs proof

(* verdict of a verifier that returned a boolean: [true] means the
   mutation was accepted *)
let verdict ok = if ok then Accepted else Rejected

let proof_bytes = function
  | Api.Groth16_proof p -> Groth16.proof_to_bytes p
  | Api.Spartan_proof p -> Spartan.proof_to_bytes p

(* ---- case collection ---- *)

type collector = { only : string option; mutable acc : case list }

let emit col family mutation f =
  if (match col.only with Some s -> contains ~sub:s (family ^ "." ^ mutation) | None -> true)
  then begin
    let outcome, detail =
      try f () with e -> (Crashed (Printexc.to_string e), "")
    in
    col.acc <- { family; mutation; outcome; detail } :: col.acc
  end

(* ---- Groth16: proof-point tampering and proof splicing ---- *)

let groth16_cases col fx p =
  List.iter
    (fun site ->
      emit col "groth16.point" (Groth16.Mutate.site_name site) (fun () ->
          let p' = Groth16.Mutate.apply site p in
          (verdict (verify_fixture fx (Api.Groth16_proof p')), "")))
    Groth16.Mutate.all;
  (* same statement, fresh prover randomness: A/B from one run spliced
     with C from the other — the (r, s) randomisers no longer match *)
  let rng = stream fx.t 1 in
  let p2 =
    match Api.prove_with ~rng fx.keys fx.prep.Api.assignment with
    | Api.Groth16_proof p2 -> p2
    | Api.Spartan_proof _ -> assert false
  in
  List.iter
    (fun (name, spliced) ->
      emit col "groth16.splice" name (fun () ->
          (verdict (verify_fixture fx (Api.Groth16_proof spliced)), "")))
    [ ("rerand-a", { p with Groth16.a = p2.Groth16.a });
      ("rerand-b", { p with Groth16.b = p2.Groth16.b });
      ("rerand-c", { p with Groth16.c = p2.Groth16.c }) ];
  (* cross-statement splicing needs shared keys, i.e. a challenge-free
     circuit (CRPC circuits bake the statement's challenge into the
     coefficients, so a second statement has different keys) *)
  if not (Mc.uses_challenge fx.t.strategy) then begin
    let rng = stream fx.t 2 in
    let d = fx.t.dims in
    let x2, w2 = Spec.random_statement rng ~bound:256 d in
    let prep2 = Api.prepare fx.t.strategy ~x:x2 ~w:w2 d in
    let q =
      match Api.prove_with ~rng fx.keys prep2.Api.assignment with
      | Api.Groth16_proof q -> q
      | Api.Spartan_proof _ -> assert false
    in
    List.iter
      (fun (name, spliced) ->
        emit col "groth16.splice" name (fun () ->
            (verdict (verify_fixture fx (Api.Groth16_proof spliced)), "")))
      [ ("cross-a", { p with Groth16.a = q.Groth16.a });
        ("cross-bc", { q with Groth16.a = p.Groth16.a });
        ("transplant", q) ]
  end

(* ---- Spartan: per-component mutation in both opening modes ---- *)

let spartan_cases col fx p =
  List.iter
    (fun site ->
      emit col "spartan.proof" (Spartan.Mutate.site_name site) (fun () ->
          let p' = Spartan.Mutate.apply site p in
          (verdict (verify_fixture fx (Api.Spartan_proof p')), "")))
    (Spartan.Mutate.sites p);
  (* cross-statement transplant (keys are shared for challenge-free
     circuits): a proof of Y₂ = X₂·W₂ replayed against statement 1 *)
  if not (Mc.uses_challenge fx.t.strategy) then begin
    let rng = stream fx.t 2 in
    let d = fx.t.dims in
    let x2, w2 = Spec.random_statement rng ~bound:256 d in
    let prep2 = Api.prepare fx.t.strategy ~x:x2 ~w:w2 d in
    let q = Api.prove_with ~rng fx.keys prep2.Api.assignment in
    emit col "spartan.splice" "transplant" (fun () ->
        (verdict (verify_fixture fx q), ""))
  end

(* the IPA opening is not reachable through [Api.prove_with]; prove
   directly and mutate only the opening sites (the sumcheck/commitment
   prefix is already covered by the Hyrax-fold run) *)
let spartan_ipa_cases col fx inst key =
  let rng = stream fx.t 3 in
  let p = Spartan.prove ~opening_mode:`Ipa rng key inst fx.prep.Api.assignment in
  let honest = Spartan.verify key inst ~public_inputs:fx.public_inputs p in
  List.iter
    (fun site ->
      let name = Spartan.Mutate.site_name site in
      if contains ~sub:"opening." name then
        emit col "spartan.ipa" name (fun () ->
            let p' = Spartan.Mutate.apply site p in
            (verdict (Spartan.verify key inst ~public_inputs:fx.public_inputs p'), "")))
    (Spartan.Mutate.sites p);
  honest

(* ---- witness-level attacks: re-prove from a corrupted assignment ---- *)

let bump_assignment a i =
  let a' = Array.copy a in
  a'.(i) <- Fr.add a'.(i) Fr.one;
  a'

let witness_cases col fx =
  let d = fx.t.dims in
  let rng = stream fx.t 4 in
  let num_inputs = Api.Cs.num_inputs fx.prep.Api.cs in
  (* one wrong output: forge y_ij as both witness and claimed statement *)
  let i = Random.State.int rng d.Mspec.a and j = Random.State.int rng d.Mspec.b in
  emit col "witness" (Printf.sprintf "y[%d,%d]+1" i j) (fun () ->
      let idx = 1 + (i * d.Mspec.b) + j in
      let asg = bump_assignment fx.prep.Api.assignment idx in
      let publics = Api.Cs.public_inputs fx.prep.Api.cs asg in
      let proof = Api.prove_with ~rng:(stream fx.t 5) fx.keys asg in
      (verdict (Api.verify_with fx.keys ~public_inputs:publics proof), ""));
  (* one corrupted internal wire (the prefix-sum link s_k for the PSQ
     strategies, a product / CRPC term wire otherwise) *)
  let first_internal = 1 + num_inputs + (d.Mspec.a * d.Mspec.n) + (d.Mspec.n * d.Mspec.b) in
  if Array.length fx.prep.Api.assignment > first_internal then begin
    let internal_count = Array.length fx.prep.Api.assignment - first_internal in
    let idx = first_internal + Random.State.int rng internal_count in
    let name =
      match fx.t.strategy with
      | Mc.Vanilla_psq | Mc.Crpc_psq -> "s_k-link+1"
      | Mc.Vanilla | Mc.Crpc -> "internal-wire+1"
    in
    emit col "witness" name (fun () ->
        let asg = bump_assignment fx.prep.Api.assignment idx in
        let proof = Api.prove_with ~rng:(stream fx.t 5) fx.keys asg in
        (verdict (verify_fixture fx proof), ""))
  end;
  (* forged public input: the honest proof replayed against a claimed Y
     that was never proved *)
  let k = Random.State.int rng num_inputs in
  emit col "statement" (Printf.sprintf "public-input[%d]+1" k) (fun () ->
      let publics =
        List.mapi (fun n v -> if n = k then Fr.add v Fr.one else v) fx.public_inputs
      in
      (verdict (Api.verify_with fx.keys ~public_inputs:publics fx.proof), ""))

(* ---- CRPC challenge attacks ---- *)

(* Build the CRPC circuit for [challenge] with a forged public Y and an
   honest X, W; mirrors [Matmul_circuit.build]'s allocation order. *)
let crpc_statement backend strategy ~challenge ~x ~w ~forged_y d ~rng =
  let b = Bld.create () in
  let y_wires =
    Array.map (fun row -> Array.map (fun v -> Bld.alloc_input b v) row) forged_y
  in
  let alloc_matrix m = Array.map (Array.map (fun v -> Bld.alloc b v)) m in
  let x_wires = alloc_matrix x and w_wires = alloc_matrix w in
  McM.constrain b strategy ~challenge ~x:x_wires ~w:w_wires ~y:y_wires d;
  let cs, asg = Bld.finalize b in
  let keys = Api.keygen ~rng backend cs in
  let proof = Api.prove_with ~rng keys asg in
  let publics = Api.Cs.public_inputs cs asg in
  (keys, proof, publics)

let crpc_cases col fx =
  let d = fx.t.dims in
  let y = Spec.multiply fx.x fx.w in
  (* chosen challenge: with z fixed before Y, the prover can move mass
     between two outputs along z's weights and still satisfy the
     polynomial identity Σ z^{ib+j}·y_ij = Σ_k L_k·R_k *)
  if d.Mspec.a * d.Mspec.b >= 2 then
    emit col "crpc" "chosen-challenge" (fun () ->
        let z = Fr.of_int 0xC0FFEE in
        let forged_y = Array.map Array.copy y in
        let delta = Fr.one in
        (* second output slot and its weight z^{i·b+j} *)
        let (i2, j2), weight =
          if d.Mspec.b >= 2 then ((0, 1), z) else ((1, 0), Fr.pow_int z d.Mspec.b)
        in
        forged_y.(0).(0) <- Fr.add forged_y.(0).(0) delta;
        forged_y.(i2).(j2) <- Fr.sub forged_y.(i2).(j2) (Fr.div delta weight);
        let keys, proof, publics =
          crpc_statement fx.t.backend fx.t.strategy ~challenge:z ~x:fx.x ~w:fx.w
            ~forged_y d ~rng:(stream fx.t 6)
        in
        let backend_accepts = Api.verify_with keys ~public_inputs:publics proof in
        let fs_authentic =
          Fr.equal (McM.derive_challenge ~x:fx.x ~w:fx.w ~y:forged_y) z
        in
        ( verdict (backend_accepts && fs_authentic),
          Printf.sprintf
            "SNARK %s the identity at the chosen z; Fiat-Shamir recomputation %s"
            (if backend_accepts then "accepts" else "rejects")
            (if fs_authentic then "MATCHES (forgery!)" else "rejects the challenge") ));
  (* challenge reuse: an honest second statement proved under the first
     statement's challenge — sound as a polynomial identity, but the
     challenge no longer authenticates this (X, W, Y) *)
  emit col "crpc" "challenge-reuse" (fun () ->
      let z1 =
        match fx.prep.Api.challenge with Some z -> z | None -> assert false
      in
      let rng = stream fx.t 7 in
      let x2, w2 = Spec.random_statement rng ~bound:256 d in
      let y2 = Spec.multiply x2 w2 in
      let keys, proof, publics =
        crpc_statement fx.t.backend fx.t.strategy ~challenge:z1 ~x:x2 ~w:w2
          ~forged_y:y2 d ~rng
      in
      let backend_accepts = Api.verify_with keys ~public_inputs:publics proof in
      let fs_authentic = Fr.equal (McM.derive_challenge ~x:x2 ~w:w2 ~y:y2) z1 in
      ( verdict (backend_accepts && fs_authentic),
        Printf.sprintf "SNARK %s; reused challenge %s"
          (if backend_accepts then "accepts" else "rejects")
          (if fs_authentic then "MATCHES (forgery!)" else "fails authentication") ))

(* ---- bit-flip machinery (used by the wire family) ---- *)

let flip_bit bytes pos =
  let b = Bytes.copy bytes in
  let byte = pos / 8 and bit = pos mod 8 in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
  b

(* Aggregate many bit flips into one case: every flip must be caught by
   a typed decode error, a statement/key-id check or a [false] verdict. *)
let flip_sweep ~rng ~flips bytes classify =
  let err = ref 0 and desc = ref 0 and reject = ref 0 and benign = ref 0 in
  let bad = ref None in
  for _ = 1 to flips do
    let pos = Random.State.int rng (8 * Bytes.length bytes) in
    match classify (flip_bit bytes pos) with
    | `Err -> incr err
    | `Desc -> incr desc
    | `Reject -> incr reject
    | `Benign -> incr benign
    | `Accept -> if !bad = None then bad := Some (pos, Accepted)
    | `Crash msg -> if !bad = None then bad := Some (pos, Crashed msg)
    | exception e -> if !bad = None then bad := Some (pos, Crashed (Printexc.to_string e))
  done;
  match !bad with
  | Some (pos, outcome) -> (outcome, Printf.sprintf "bit %d of %d bytes" pos (Bytes.length bytes))
  | None ->
    ( Rejected,
      Printf.sprintf "%d flips: %d decode-error, %d descriptor/key-id, %d verify-false%s"
        flips !err !desc !reject
        (if !benign > 0 then Printf.sprintf ", %d benign" !benign else "") )

(* ---- batch verification attacks ---- *)

(* one-site proof tampering, backend-generic (used wherever a batch or
   key-file case needs "some corrupted member") *)
let tamper_proof = function
  | Api.Groth16_proof p ->
    Api.Groth16_proof (Groth16.Mutate.apply Groth16.Mutate.C_bump p)
  | Api.Spartan_proof p ->
    (match Spartan.Mutate.sites p with
     | s :: _ -> Api.Spartan_proof (Spartan.Mutate.apply s p)
     | [] -> assert false)

(* [n] (statement, proof) members under the fixture's keys. Challenge-free
   strategies get [n] distinct statements; CRPC keys are statement-bound,
   so there the batch is the fixture statement re-proved with fresh prover
   randomness — still distinct proofs, same key. *)
let batch_members fx n =
  let d = fx.t.dims in
  let rng = stream fx.t 15 in
  List.init n (fun i ->
      if i = 0 then (fx.public_inputs, fx.proof)
      else if Mc.uses_challenge fx.t.strategy then
        (fx.public_inputs, Api.prove_with ~rng fx.keys fx.prep.Api.assignment)
      else begin
        let x, w = Spec.random_statement rng ~bound:256 d in
        let prep = Api.prepare fx.t.strategy ~x ~w d in
        ( Api.Cs.public_inputs prep.Api.cs prep.Api.assignment,
          Api.prove_with ~rng fx.keys prep.Api.assignment )
      end)

let replace_nth l k v = List.mapi (fun i x -> if i = k then v else x) l

let io_equal a b =
  List.length a = List.length b && List.for_all2 Fr.equal a b

let batch_cases col fx =
  let members = batch_members fx 3 in
  let honest = Batch.verify_each fx.keys members in
  let path_name = function
    | Batch.Batched -> "batched"
    | Batch.Fallback -> "fallback"
    | Batch.Per_item -> "per-item"
  in
  (* one corrupted member: the combined check must reject the batch, and
     the per-item fallback must isolate the fault — honest members still
     pass, the corrupted one fails *)
  emit col "batch" "one-bad-member" (fun () ->
      if not (List.for_all Fun.id honest.Batch.verdicts) then
        (Crashed "honest batch rejected", path_name honest.Batch.path)
      else begin
        let io1, p1 = List.nth members 1 in
        let out = Batch.verify_each fx.keys (replace_nth members 1 (io1, tamper_proof p1)) in
        let honest_ok = List.nth out.Batch.verdicts 0 && List.nth out.Batch.verdicts 2 in
        ( verdict (List.nth out.Batch.verdicts 1),
          Printf.sprintf "path=%s, honest members %s" (path_name out.Batch.path)
            (if honest_ok then "isolated (pass)" else "REJECTED with it") )
      end);
  (* statements swapped between two members: every proof is individually
     well-formed, but neither proves the statement now claimed for it *)
  (match members with
   | (io0, p0) :: (io1, p1) :: rest when not (io_equal io0 io1) ->
     emit col "batch" "statement-swap" (fun () ->
         let out = Batch.verify_each fx.keys ((io1, p0) :: (io0, p1) :: rest) in
         ( verdict (List.nth out.Batch.verdicts 0 || List.nth out.Batch.verdicts 1),
           "path=" ^ path_name out.Batch.path ))
   | _ -> ());
  (* wrong-arity member: must be flagged as structurally malformed (an
     attributable fault), not silently dropped or accepted *)
  emit col "batch" "arity-truncate" (fun () ->
      let io1, p1 = List.nth members 1 in
      match io1 with
      | [] -> (Rejected, "no inputs to truncate")
      | _ :: tl ->
        let out = Batch.verify_each fx.keys (replace_nth members 1 (tl, p1)) in
        if List.nth out.Batch.verdicts 1 then (Accepted, "")
        else if List.mem 1 out.Batch.malformed then
          (Rejected_error "flagged malformed", "path=" ^ path_name out.Batch.path)
        else (Rejected, "rejected but not attributed as malformed"));
  (* the empty batch has no sound verdict; it must refuse, not accept *)
  emit col "batch" "empty" (fun () ->
      match Batch.verify_each fx.keys [] with
      | _ -> (Accepted, "empty batch produced a verdict")
      | exception Invalid_argument _ -> (Rejected_error "Invalid_argument", ""))

(* ---- wire-level attacks through the Zkvc_serve codecs ---- *)

let wire_cases col fx =
  let challenge = fx.prep.Api.challenge in
  let kf =
    Key_cache.key_file fx.t.backend fx.t.strategy fx.t.dims fx.prep fx.keys
  in
  let key_id = kf.Wire.kf_key_id in
  let descriptor_matches ~backend ~strategy ~dims ~challenge:ch =
    backend = fx.t.backend && strategy = fx.t.strategy && dims = fx.t.dims
    && (match (ch, challenge) with
        | None, None -> true
        | Some a, Some b -> Fr.equal a b
        | _ -> false)
  in
  emit col "wire" "proof-file-bitflip" (fun () ->
      let pf =
        { Wire.pf_backend = fx.t.backend;
          pf_strategy = fx.t.strategy;
          pf_dims = fx.t.dims;
          pf_challenge = challenge;
          pf_key_id = key_id;
          pf_public_inputs = fx.public_inputs;
          pf_proof = fx.proof }
      in
      let bytes = Wire.encode_proof_file pf in
      flip_sweep ~rng:(stream fx.t 8) ~flips:32 bytes (fun b ->
          match Wire.decode_proof_file b with
          | Error _ -> `Err
          | Ok pf' ->
            if
              not
                (descriptor_matches ~backend:pf'.Wire.pf_backend
                   ~strategy:pf'.Wire.pf_strategy ~dims:pf'.Wire.pf_dims
                   ~challenge:pf'.Wire.pf_challenge)
            then `Desc
            else if pf'.Wire.pf_key_id <> key_id then `Desc
            else if
              Api.verify_with fx.keys ~public_inputs:pf'.Wire.pf_public_inputs
                pf'.Wire.pf_proof
            then `Accept
            else `Reject));
  emit col "wire" "key-file-bitflip" (fun () ->
      let bytes = Wire.encode_key_file kf in
      (* a tampered proof must stay rejected whatever survives decoding:
         a flip that only hits the proving-key half leaves verification
         intact (benign), a flip in the verifying key fails closed *)
      let tampered =
        match fx.proof with
        | Api.Groth16_proof p ->
          Api.Groth16_proof (Groth16.Mutate.apply Groth16.Mutate.C_bump p)
        | Api.Spartan_proof p ->
          (match Spartan.Mutate.sites p with
           | s :: _ -> Api.Spartan_proof (Spartan.Mutate.apply s p)
           | [] -> assert false)
      in
      flip_sweep ~rng:(stream fx.t 9) ~flips:24 bytes (fun b ->
          match Wire.decode_key_file b with
          | Error _ -> `Err
          | Ok kf' ->
            if
              not
                (descriptor_matches ~backend:kf'.Wire.kf_backend
                   ~strategy:kf'.Wire.kf_strategy ~dims:kf'.Wire.kf_dims
                   ~challenge:kf'.Wire.kf_challenge)
              || kf'.Wire.kf_key_id <> key_id
            then `Desc
            else if
              try
                Api.verify_with kf'.Wire.kf_keys ~public_inputs:fx.public_inputs
                  tampered
              with Invalid_argument _ -> false
            then `Accept
            else `Reject));
  let adv_trace =
    Some
      { Wire.tr_request_id = String.init 16 (fun i -> Char.chr (i * 7 land 0xff));
        tr_origin = "adversary" }
  in
  let verify_request =
    Wire.Request
      ( adv_trace,
        Wire.Verify
          { key_id;
            public_inputs = fx.public_inputs;
            proof = fx.proof;
            deadline_ms = 0 } )
  in
  (* classifier for verify-request frames: a flip must yield a typed
     decode error, a changed descriptor, a [false] verdict, or leave the
     statement untouched — never an accepted forgery. Flips in the trace
     block only alter telemetry, so they land in the unchanged-statement
     (benign) bucket. *)
  let classify_verify_frame b =
    let honest_proof = proof_bytes fx.proof in
    match Wire.decode_frame b with
    | Error _ -> `Err
    | Ok (Wire.Request (_, Wire.Verify { key_id = kid; public_inputs; proof; _ })) ->
      if kid <> key_id then `Desc
      else begin
        let statement_unchanged =
          List.length public_inputs = List.length fx.public_inputs
          && List.for_all2 Fr.equal public_inputs fx.public_inputs
          && Bytes.equal (proof_bytes proof) honest_proof
        in
        match Api.verify_with fx.keys ~public_inputs proof with
        | true -> if statement_unchanged then `Benign else `Accept
        | false -> `Reject
        | exception Invalid_argument _ -> `Err
      end
    | Ok _ -> `Desc
  in
  emit col "wire" "frame-bitflip" (fun () ->
      let bytes = Wire.encode_frame verify_request in
      flip_sweep ~rng:(stream fx.t 10) ~flips:48 bytes classify_verify_frame);
  emit col "wire" "batch-frame-bitflip" (fun () ->
      (* a two-member [Batch_verify] request frame: every flip must end in
         a typed decode error, a changed key id, a refused (empty/oversized)
         batch, a [false] member verdict, or leave both statements
         untouched — never a batch that accepts a changed statement *)
      let members = [ (fx.public_inputs, fx.proof); (fx.public_inputs, fx.proof) ] in
      let frame =
        Wire.Request
          (adv_trace, Wire.Batch_verify { key_id; items = members; deadline_ms = 0 })
      in
      let honest_proof = proof_bytes fx.proof in
      let bytes = Wire.encode_frame frame in
      flip_sweep ~rng:(stream fx.t 19) ~flips:24 bytes (fun b ->
          match Wire.decode_frame b with
          | Error _ -> `Err
          | Ok (Wire.Request (_, Wire.Batch_verify { key_id = kid; items; _ })) ->
            if kid <> key_id then `Desc
            else begin
              match Batch.verify_each fx.keys items with
              | exception Invalid_argument _ -> `Err
              | out ->
                let unchanged (io, p) =
                  io_equal io fx.public_inputs
                  && Bytes.equal (proof_bytes p) honest_proof
                in
                let forged_accepted =
                  List.exists2
                    (fun item ok -> ok && not (unchanged item))
                    items out.Batch.verdicts
                in
                if forged_accepted then `Accept
                else if List.for_all Fun.id out.Batch.verdicts then `Benign
                else `Reject
            end
          | Ok _ -> `Desc));
  emit col "wire" "status-detail-request-bitflip" (fun () ->
      let bytes = Wire.encode_frame (Wire.Request (adv_trace, Wire.Status_detail)) in
      flip_sweep ~rng:(stream fx.t 12) ~flips:32 bytes (fun b ->
          match Wire.decode_frame b with
          | Error _ -> `Err
          | Ok (Wire.Request (_, Wire.Status_detail)) -> `Benign
          | Ok _ -> `Desc));
  emit col "wire" "status-detail-response-bitflip" (fun () ->
      let stat =
        { Wire.uptime_s = 12.5;
          requests = 9;
          queue_depth = 1;
          queue_capacity = 16;
          cache_hits = 3;
          cache_misses = 2;
          cache_entries = 2;
          timeouts = 0;
          rejections = 1;
          batched = 4;
          workers = 2;
          workers_busy = 1;
          queue_depth_verify = 0;
          queue_depth_prove = 1 }
      in
      let timing =
        Some
          { Wire.tm_request_id = String.init 16 (fun i -> Char.chr (i * 11 land 0xff));
            tm_queue_wait_s = 0.001;
            tm_exec_s = 0.25;
            tm_phases = [ ("serve.prepare", 0., 0.01); ("serve.prove", 0.01, 0.2) ] }
      in
      let resp =
        Wire.Response
          ( timing,
            Wire.Status_detail_ok
              { status = stat;
                metrics_text = "# TYPE zkvc_serve_requests_total counter\nzkvc_serve_requests_total 9\n";
                flight_jsonl = "{\"request_id\":\"00\",\"kind\":\"prove\",\"outcome\":\"ok\"}\n" } )
      in
      let bytes = Wire.encode_frame resp in
      flip_sweep ~rng:(stream fx.t 13) ~flips:32 bytes (fun b ->
          match Wire.decode_frame b with
          | Error _ -> `Err
          | Ok (Wire.Response (_, Wire.Status_detail_ok _)) -> `Benign
          | Ok _ -> `Desc))

(* ---- driver ---- *)

let run_target ?only t =
  let fx = make_fixture t in
  let honest = verify_fixture fx fx.proof in
  let col = { only; acc = [] } in
  let honest_ipa =
    match (fx.proof, fx.keys) with
    | Api.Groth16_proof p, _ ->
      groth16_cases col fx p;
      true
    | Api.Spartan_proof p, Api.Spartan_keys { inst; key } ->
      spartan_cases col fx p;
      spartan_ipa_cases col fx inst key
    | Api.Spartan_proof _, Api.Groth16_keys _ -> assert false
  in
  witness_cases col fx;
  if Mc.uses_challenge t.strategy then crpc_cases col fx;
  batch_cases col fx;
  wire_cases col fx;
  { target = t; honest_verified = honest && honest_ipa; cases = List.rev col.acc }

let failures r = List.filter (fun c -> not (outcome_is_sound c.outcome)) r.cases

let is_clean r = r.honest_verified && failures r = []

(* ---- reporting ---- *)

let pp_target fmt t =
  Format.fprintf fmt "%s/%s %a seed=%d"
    (Api.backend_name t.backend) (Mc.strategy_name t.strategy) Mspec.pp_dims t.dims
    t.seed

let pp_outcome fmt = function
  | Rejected -> Format.pp_print_string fmt "rejected"
  | Rejected_error e -> Format.fprintf fmt "rejected (%s)" e
  | Accepted -> Format.pp_print_string fmt "ACCEPTED-FORGERY"
  | Crashed e -> Format.fprintf fmt "CRASHED (%s)" e

let pp_case fmt c =
  Format.fprintf fmt "%-28s %a%s" (case_name c) pp_outcome c.outcome
    (if c.detail = "" then "" else "  [" ^ c.detail ^ "]")

let pp_report fmt r =
  Format.fprintf fmt "@[<v>== %a: %d mutations, %d failures%s@," pp_target r.target
    (List.length r.cases)
    (List.length (failures r))
    (if r.honest_verified then "" else "  (HONEST PROOF REJECTED)");
  List.iter (fun c -> Format.fprintf fmt "   %a@," pp_case c) r.cases;
  Format.fprintf fmt "@]"

let repro_hint t c =
  Printf.sprintf
    "zkvc_cli adversary --seed %d --backend %s --strategy %s --dims %d,%d,%d --only '%s'"
    t.seed (Api.backend_name t.backend) (Mc.strategy_name t.strategy)
    t.dims.Mspec.a t.dims.Mspec.n t.dims.Mspec.b (case_name c)

let shrink t c =
  let { Mspec.a; n; b } = t.dims in
  let candidates = ref [] in
  for a' = 1 to a do
    for n' = 1 to n do
      for b' = 1 to b do
        if a' * n' * b' < a * n * b then
          candidates := Mspec.dims ~a:a' ~n:n' ~b:b' :: !candidates
      done
    done
  done;
  let sorted =
    List.sort
      (fun d1 d2 ->
        compare
          (d1.Mspec.a * d1.Mspec.n * d1.Mspec.b, (d1.Mspec.a, d1.Mspec.n, d1.Mspec.b))
          (d2.Mspec.a * d2.Mspec.n * d2.Mspec.b, (d2.Mspec.a, d2.Mspec.n, d2.Mspec.b)))
      !candidates
  in
  List.fold_left
    (fun found d ->
      match found with
      | Some _ -> found
      | None ->
        let t' = { t with dims = d } in
        let r = run_target ~only:(case_name c) t' in
        (match
           List.find_opt
             (fun c' -> case_name c' = case_name c && not (outcome_is_sound c'.outcome))
             r.cases
         with
         | Some c' -> Some (t', c')
         | None -> None))
    None sorted

let default_dims = [ Mspec.dims ~a:2 ~n:2 ~b:2; Mspec.dims ~a:3 ~n:3 ~b:2 ]
let default_strategies = Mc.all_strategies

let sweep ?(out = Format.std_formatter) ?only
    ?(backends = [ Api.Backend_groth16; Api.Backend_spartan ])
    ?(strategies = default_strategies) ?(dims = default_dims) ~seed () =
  let reports = ref [] in
  List.iter
    (fun backend ->
      List.iter
        (fun strategy ->
          List.iter
            (fun d ->
              let t = { backend; strategy; dims = d; seed } in
              let r = run_target ?only t in
              reports := r :: !reports;
              Format.fprintf out "%a" pp_report r;
              List.iter
                (fun c ->
                  Format.fprintf out "   repro: %s@." (repro_hint t c);
                  match shrink t c with
                  | Some (t', c') ->
                    Format.fprintf out "   shrunk: %s@." (repro_hint t' c')
                  | None -> ())
                (failures r);
              Format.pp_print_flush out ())
            dims)
        strategies)
    backends;
  let reports = List.rev !reports in
  (reports, List.for_all is_clean reports)
