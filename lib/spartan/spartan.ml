module Fr = Zkvc_field.Fr
module G1 = Zkvc_curve.G1
module Msm_g1 = Zkvc_curve.Msm.Make (G1)
module Cs = Zkvc_r1cs.Constraint_system.Make (Fr)
module L = Zkvc_r1cs.Lc.Make (Fr)
module Sm = Sparse_matrix.Make (Fr)
module Sc = Sumcheck.Make (Fr)
module Ml = Zkvc_poly.Multilinear.Make (Fr)
module T = Zkvc_transcript.Transcript
module Ch = T.Challenge (Fr)
module Span = Zkvc_obs.Span
module Parallel = Zkvc_parallel

type instance =
  { mu : int; (* log2 padded rows *)
    nu : int; (* log2 padded z length; first half public, second witness *)
    half : int; (* 2^(nu-1) *)
    a : Sm.t;
    b : Sm.t;
    c : Sm.t;
    num_inputs : int;
    num_aux : int }

let log2_ceil n =
  let rec go k p = if p >= n then k else go (k + 1) (2 * p) in
  go 0 1

let preprocess (cs : Cs.t) =
  let rows = Stdlib.max 2 (Cs.num_constraints cs) in
  let mu = log2_ceil rows in
  let pub_slots = 1 + Cs.num_inputs cs in
  let half = 1 lsl log2_ceil (Stdlib.max pub_slots (Stdlib.max 1 (Cs.num_aux cs))) in
  let nu = 1 + log2_ceil half in
  let ni = Cs.num_inputs cs in
  let remap j = if j <= ni then j else half + (j - ni - 1) in
  let matrix select =
    let entries = ref [] in
    Array.iteri
      (fun i c ->
        List.iter
          (fun (v, coeff) ->
            entries := { Sm.row = i; col = remap v; value = coeff } :: !entries)
          (L.terms (select c)))
      cs.Cs.constraints;
    Sm.create ~mu ~nu !entries
  in
  { mu;
    nu;
    half;
    a = matrix (fun c -> c.Cs.a);
    b = matrix (fun c -> c.Cs.b);
    c = matrix (fun c -> c.Cs.c);
    num_inputs = ni;
    num_aux = Cs.num_aux cs }

let num_rounds_y t = t.nu

(* Hyrax layout of the witness half: 2^wrows × 2^wcols matrix. *)
let split_k t =
  let k = t.nu - 1 in
  let wrows = k / 2 in
  (wrows, k - wrows)

type key = { pedersen : Pedersen.key; wrows : int; wcols : int }

let setup t =
  let wrows, wcols = split_k t in
  { pedersen = Pedersen.create_key (1 lsl wcols); wrows; wcols }

(* Two ways to open w̃ at the challenge point:
   - [Fold_opening]: Hyrax-lite, reveal the L-combined row vector (O(√n));
   - [Ipa_opening]: compress the same statement with a Bulletproofs-style
     inner-product argument (O(log n) proof; the aggregated blind is
     revealed, trading perfect hiding of the fold for succinctness). *)
type opening =
  | Fold_opening of { folded : Fr.t array; (* Lᵀ·W, length 2^wcols *) fold_blind : Fr.t }
  | Ipa_opening of { blind : Fr.t; w_eval : Fr.t; ipa : Ipa.proof }

type proof =
  { comm_rows : G1.t array;
    sc1 : Sc.proof;
    va : Fr.t;
    vb : Fr.t;
    vc : Fr.t;
    sc2 : Sc.proof;
    opening : opening }

let fr_bytes = 32
let g1_bytes = 64

let proof_size_bytes p =
  let rounds_bytes sc =
    List.fold_left (fun acc evals -> acc + (Array.length evals * fr_bytes)) 0 sc
  in
  let opening_bytes =
    match p.opening with
    | Fold_opening { folded; _ } -> (Array.length folded * fr_bytes) + fr_bytes
    | Ipa_opening { ipa; _ } -> (2 * fr_bytes) + Ipa.proof_size_bytes ipa
  in
  (Array.length p.comm_rows * g1_bytes)
  + rounds_bytes p.sc1 + rounds_bytes p.sc2
  + (3 * fr_bytes)
  + opening_bytes

(* ---- wire encodings ----
   Length-prefixed arrays over the tagged uncompressed point format and
   the canonical 32-byte field encoding. Parsing validates every G1
   point's curve equation and every scalar's canonicity, matching
   Groth16's [proof_of_bytes_exn] discipline; raises [Invalid_argument]
   on truncation, bad tags, oversized counts or trailing bytes. *)

let w_u32 buf n =
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (n land 0xff))

let w_fr buf x = Buffer.add_bytes buf (Fr.to_bytes x)
let w_g1 buf p = Buffer.add_bytes buf (G1.to_bytes p)

let w_g1_array buf a =
  w_u32 buf (Array.length a);
  Array.iter (w_g1 buf) a

let w_fr_array buf a =
  w_u32 buf (Array.length a);
  Array.iter (w_fr buf) a

let w_sumcheck buf (sc : Sc.proof) =
  w_u32 buf (List.length sc);
  List.iter (w_fr_array buf) sc

type cursor = { cbuf : Bytes.t; mutable pos : int }

let need what c n =
  if c.pos + n > Bytes.length c.cbuf then
    invalid_arg (Printf.sprintf "Spartan.%s: truncated input" what)

let r_u8 what c =
  need what c 1;
  let n = Char.code (Bytes.get c.cbuf c.pos) in
  c.pos <- c.pos + 1;
  n

let r_u32 what c =
  need what c 4;
  let b i = Char.code (Bytes.get c.cbuf (c.pos + i)) in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  n

let r_fr what c =
  need what c fr_bytes;
  let x = Fr.of_bytes_exn (Bytes.sub c.cbuf c.pos fr_bytes) in
  c.pos <- c.pos + fr_bytes;
  x

let r_g1 what c =
  need what c G1.size_in_bytes;
  let p = G1.of_bytes_exn (Bytes.sub c.cbuf c.pos G1.size_in_bytes) in
  c.pos <- c.pos + G1.size_in_bytes;
  p

let r_array what c width read =
  let n = r_u32 what c in
  if n > (Bytes.length c.cbuf - c.pos) / width then
    invalid_arg (Printf.sprintf "Spartan.%s: oversized array count" what);
  Array.init n (fun _ -> read what c)

let r_sumcheck what c =
  let n = r_u32 what c in
  if n > Bytes.length c.cbuf - c.pos then
    invalid_arg (Printf.sprintf "Spartan.%s: oversized round count" what);
  List.init n (fun _ -> r_array what c fr_bytes r_fr)

let finished what c =
  if c.pos <> Bytes.length c.cbuf then
    invalid_arg (Printf.sprintf "Spartan.%s: trailing bytes" what)

let proof_to_bytes p =
  let buf = Buffer.create 4096 in
  w_g1_array buf p.comm_rows;
  w_sumcheck buf p.sc1;
  w_fr buf p.va;
  w_fr buf p.vb;
  w_fr buf p.vc;
  w_sumcheck buf p.sc2;
  (match p.opening with
   | Fold_opening { folded; fold_blind } ->
     Buffer.add_char buf '\000';
     w_fr_array buf folded;
     w_fr buf fold_blind
   | Ipa_opening { blind; w_eval; ipa } ->
     Buffer.add_char buf '\001';
     w_fr buf blind;
     w_fr buf w_eval;
     w_g1_array buf ipa.Ipa.ls;
     w_g1_array buf ipa.Ipa.rs;
     w_fr buf ipa.Ipa.a_final);
  Buffer.to_bytes buf

let proof_of_bytes_exn bytes =
  let what = "proof_of_bytes_exn" in
  let c = { cbuf = bytes; pos = 0 } in
  let comm_rows = r_array what c G1.size_in_bytes r_g1 in
  let sc1 = r_sumcheck what c in
  let va = r_fr what c in
  let vb = r_fr what c in
  let vc = r_fr what c in
  let sc2 = r_sumcheck what c in
  let opening =
    match r_u8 what c with
    | 0 ->
      let folded = r_array what c fr_bytes r_fr in
      let fold_blind = r_fr what c in
      Fold_opening { folded; fold_blind }
    | 1 ->
      let blind = r_fr what c in
      let w_eval = r_fr what c in
      let ls = r_array what c G1.size_in_bytes r_g1 in
      let rs = r_array what c G1.size_in_bytes r_g1 in
      let a_final = r_fr what c in
      Ipa_opening { blind; w_eval; ipa = { Ipa.ls; rs; a_final } }
    | t -> invalid_arg (Printf.sprintf "Spartan.%s: unknown opening tag %d" what t)
  in
  finished what c;
  { comm_rows; sc1; va; vb; vc; sc2; opening }

let key_to_bytes (k : key) =
  let buf = Buffer.create 4096 in
  Buffer.add_char buf (Char.chr k.wrows);
  Buffer.add_char buf (Char.chr k.wcols);
  w_g1_array buf (Pedersen.generators k.pedersen);
  w_g1 buf (Pedersen.blinder k.pedersen);
  Buffer.to_bytes buf

let key_of_bytes_exn bytes =
  let what = "key_of_bytes_exn" in
  let c = { cbuf = bytes; pos = 0 } in
  let wrows = r_u8 what c in
  let wcols = r_u8 what c in
  (* wrows/wcols are untrusted log-dims; bound them before any [1 lsl]
     (OCaml lsl with shift >= 63 is unspecified, so wcols=64 could
     otherwise sneak past the generator-count check below) *)
  if wrows > 30 || wcols > 30 then
    invalid_arg
      (Printf.sprintf "Spartan.%s: witness grid log-dims out of range (wrows=%d wcols=%d)"
         what wrows wcols);
  let generators = r_array what c G1.size_in_bytes r_g1 in
  let blinder = r_g1 what c in
  finished what c;
  if Array.length generators <> 1 lsl wcols then
    invalid_arg (Printf.sprintf "Spartan.%s: generator count does not match wcols" what);
  { pedersen = Pedersen.of_raw ~generators ~blinder; wrows; wcols }

(* Build the padded z vector: [1; inputs; 0...0 | aux; 0...0]. *)
let build_z t assignment =
  let z = Array.make (2 * t.half) Fr.zero in
  for j = 0 to t.num_inputs do
    z.(j) <- assignment.(j)
  done;
  for j = 0 to t.num_aux - 1 do
    z.(t.half + j) <- assignment.(1 + t.num_inputs + j)
  done;
  z

let transcript_init t ~public_inputs =
  let tr = T.create ~label:"zkvc.spartan" in
  T.absorb_int tr ~label:"mu" t.mu;
  T.absorb_int tr ~label:"nu" t.nu;
  Ch.absorb_list tr ~label:"io" public_inputs;
  tr

let split_at k l =
  let rec go i acc rest =
    if i = 0 then (List.rev acc, rest)
    else match rest with
      | [] -> invalid_arg "split_at"
      | x :: tl -> go (i - 1) (x :: acc) tl
  in
  go k [] l

let prove ?(opening_mode = `Hyrax_fold) st key t assignment =
  let z = build_z t assignment in
  let w = Array.sub z t.half t.half in
  let nrows = 1 lsl key.wrows and ncols = 1 lsl key.wcols in
  let blinds = Array.init nrows (fun _ -> Fr.random st) in
  let comm_rows =
    (* rows commit independently; the MSM inside each commit degrades to
       its sequential path when called from a pool worker *)
    Span.with_span "prove.commit_witness" (fun () ->
        let commit_row i =
          Pedersen.commit key.pedersen (Array.sub w (i * ncols) ncols) ~blind:blinds.(i)
        in
        if Parallel.jobs () > 1 && nrows >= 4 then Parallel.parallel_init nrows commit_row
        else Array.init nrows commit_row)
  in
  let public_inputs = Array.to_list (Array.sub assignment 1 t.num_inputs) in
  let tr = transcript_init t ~public_inputs in
  (* one inversion for all rows; the encodings below, and the proof's,
     then take the affine coordinates as they are *)
  G1.normalize comm_rows;
  Array.iter (fun c -> T.absorb_bytes tr ~label:"comm" (G1.to_bytes c)) comm_rows;
  (* phase 1 *)
  let tau = Ch.challenges tr ~label:"tau" t.mu in
  let az, bz, cz =
    Span.with_span "prove.matrix_vector" (fun () ->
        (Sm.mul_vec t.a z, Sm.mul_vec t.b z, Sm.mul_vec t.c z))
  in
  let sc1, rx, finals1 =
    Span.with_span "prove.sumcheck1" (fun () ->
        Sc.prove_eq_r1cs tr ~label:"sc1" ~tau az bz cz)
  in
  let va = finals1.(1) and vb = finals1.(2) and vc = finals1.(3) in
  Ch.absorb_list tr ~label:"claims" [ va; vb; vc ];
  (* phase 2 *)
  let ra = Ch.challenge tr ~label:"ra" in
  let rb = Ch.challenge tr ~label:"rb" in
  let rc = Ch.challenge tr ~label:"rc" in
  let mx =
    Span.with_span "prove.matrix_fold" (fun () ->
        (* one vector, the three matrices folded into it with weights
           ra·eq̃(rx,·), rb·eq̃(rx,·) and rc·eq̃(rx,·), scaled per row
           that has entries: the field values of ra·(eqᵀA) + rb·(eqᵀB)
           + rc·(eqᵀC) without a pass over the 2·half columns *)
        let eq = Ml.evals (Ml.eq_table rx) in
        let mx = Array.make (2 * t.half) Fr.zero in
        List.iter
          (fun (m, scale) -> Sm.fold_rows m ~scale eq mx)
          [ (t.a, ra); (t.b, rb); (t.c, rc) ];
        mx)
  in
  let sc2, ry, _finals2 =
    Span.with_span "prove.sumcheck2" (fun () ->
        Sc.prove_product tr ~label:"sc2" mx z)
  in
  (* Hyrax-style opening of w̃ at the witness-half point *)
  let opening =
    Span.with_span "prove.opening" (fun () ->
        let ry_w = List.tl ry in
        let lcoords, _rcoords = split_at key.wrows ry_w in
        let lweights = Ml.evals (Ml.eq_table lcoords) in
        let fold_col j =
          let acc = ref Fr.zero in
          for i = 0 to nrows - 1 do
            acc := Fr.add !acc (Fr.mul lweights.(i) w.((i * ncols) + j))
          done;
          !acc
        in
        let folded =
          if Parallel.jobs () > 1 && ncols >= 64 then Parallel.parallel_init ncols fold_col
          else Array.init ncols fold_col
        in
        let fold_blind =
          let acc = ref Fr.zero in
          for i = 0 to nrows - 1 do
            acc := Fr.add !acc (Fr.mul lweights.(i) blinds.(i))
          done;
          !acc
        in
        match opening_mode with
        | `Hyrax_fold -> Fold_opening { folded; fold_blind }
        | `Ipa ->
          let _rcoords_len = key.wcols in
          let rcoords = snd (split_at key.wrows ry_w) in
          let rweights = Ml.evals (Ml.eq_table rcoords) in
          let w_eval =
            let acc = ref Fr.zero in
            Array.iteri (fun j v -> acc := Fr.add !acc (Fr.mul v rweights.(j))) folded;
            !acc
          in
          Ch.absorb tr ~label:"open-blind" fold_blind;
          Ch.absorb tr ~label:"open-eval" w_eval;
          let ipa = Ipa.prove key.pedersen tr ~a:folded ~b:rweights in
          Ipa_opening { blind = fold_blind; w_eval; ipa })
  in
  { comm_rows; sc1; va; vb; vc; sc2; opening }

(* ---- deferred-opening verification ----

   All of Spartan's verifier checks except one are field work: the
   sumcheck replays, the matrix MLE evaluation and the final
   [e2 = m̃·z̃] identity. The single group-side check — that the opening
   is consistent with the row commitments — is a linear relation over a
   fixed basis (the Pedersen generators, the blinder U, the IPA
   generator Q) plus per-proof points (row commitments, IPA round L/Rs):

     ⟨d_gen, G⟩ + d_blinder·U + d_q·Q + Σ d_points = 0.

   [verify_deferred] runs every field check and returns that relation
   instead of evaluating it, so [verify_batch] can take a random linear
   combination of N relations (the basis scalars sum; the per-proof
   points concatenate) and evaluate ONE MSM for the whole batch. *)
type deferred =
  { d_gen : Fr.t array; (* scalars over the Pedersen generators, length ncols *)
    d_blinder : Fr.t;
    d_q : Fr.t;
    d_points : (G1.t * Fr.t) list }

let verify_deferred key t ~public_inputs proof =
  if List.length public_inputs <> t.num_inputs then None
  else begin
    let nrows = 1 lsl key.wrows and ncols = 1 lsl key.wcols in
    (* the round counts fix the lengths of rx and ry, and so the sizes of
       the eq̃ tables built from them: check them before any table *)
    if Array.length proof.comm_rows <> nrows
       || List.length proof.sc1 <> t.mu
       || List.length proof.sc2 <> t.nu
    then None
    else begin
      let tr = transcript_init t ~public_inputs in
      Array.iter (fun c -> T.absorb_bytes tr ~label:"comm" (G1.to_bytes c)) proof.comm_rows;
      let replay ~label ~degree ~claim sc =
        Span.with_span "verify.sumcheck" (fun () -> Sc.verify tr ~label ~degree ~claim sc)
      in
      let tau = Ch.challenges tr ~label:"tau" t.mu in
      match replay ~label:"sc1" ~degree:3 ~claim:Fr.zero proof.sc1 with
      | None -> None
      | Some (e1, rx) ->
        let eq_tau_rx = Ml.eq_eval tau rx in
        let expected1 =
          Fr.mul eq_tau_rx (Fr.sub (Fr.mul proof.va proof.vb) proof.vc)
        in
        if not (Fr.equal e1 expected1) then None
        else begin
          Ch.absorb_list tr ~label:"claims" [ proof.va; proof.vb; proof.vc ];
          let ra = Ch.challenge tr ~label:"ra" in
          let rb = Ch.challenge tr ~label:"rb" in
          let rc = Ch.challenge tr ~label:"rc" in
          let claim2 =
            Fr.add (Fr.mul ra proof.va) (Fr.add (Fr.mul rb proof.vb) (Fr.mul rc proof.vc))
          in
          match replay ~label:"sc2" ~degree:2 ~claim:claim2 proof.sc2 with
          | None -> None
          | Some (e2, ry) ->
            (* combined matrix MLE at (rx, ry) from the eq̃ tables:
               O(2^µ + 2^ν) to build them, then two multiplications per
               nonzero. The column table also serves the public half of z̃. *)
            let m_eval, col_w =
              Span.with_span "verify.matrix_eval" (fun () ->
                  let row_w = Ml.evals (Ml.eq_table rx)
                  and col_w = Ml.evals (Ml.eq_table ry) in
                  let ev m = Sm.eval_tables m ~row_w ~col_w in
                  ( Fr.add (Fr.mul ra (ev t.a)) (Fr.add (Fr.mul rb (ev t.b)) (Fr.mul rc (ev t.c))),
                    col_w ))
            in
            match ry with
            | [] -> None
            | ry0 :: ry_w ->
              let lcoords, rcoords = split_at key.wrows ry_w in
              let lweights = Ml.evals (Ml.eq_table lcoords) in
              let rweights = Ml.evals (Ml.eq_table rcoords) in
              let comm_terms () =
                Array.to_list (Array.mapi (fun i c -> (c, lweights.(i))) proof.comm_rows)
              in
              let opening_opt =
                match proof.opening with
                | Fold_opening { folded; fold_blind } ->
                  if Array.length folded <> ncols then None
                  else begin
                    (* check_fold rearranged:
                       Σ L_i·C_i − ⟨folded, G⟩ − fold_blind·U = 0 *)
                    let w_eval = ref Fr.zero in
                    for j = 0 to ncols - 1 do
                      w_eval := Fr.add !w_eval (Fr.mul folded.(j) rweights.(j))
                    done;
                    Some
                      ( !w_eval,
                        { d_gen = Array.map Fr.neg folded;
                          d_blinder = Fr.neg fold_blind;
                          d_q = Fr.zero;
                          d_points = comm_terms () } )
                  end
                | Ipa_opening { blind; w_eval; ipa } -> (
                  (* P = Σ L_i·C_i − blind·U + w_eval·Q, folded into the
                     IPA's own deferred relation *)
                  Ch.absorb tr ~label:"open-blind" blind;
                  Ch.absorb tr ~label:"open-eval" w_eval;
                  match Ipa.deferred key.pedersen tr ~b:rweights ipa with
                  | None -> None
                  | Some idef ->
                    Some
                      ( w_eval,
                        { d_gen = idef.Ipa.g_scalars;
                          d_blinder = Fr.neg blind;
                          d_q = Fr.add w_eval idef.Ipa.q_scalar;
                          d_points = comm_terms () @ idef.Ipa.points } ))
              in
              match opening_opt with
              | None -> None
              | Some (w_eval, d) ->
                (* public half [1; io; 0...]: for c < half,
                   col_w.(c) = (1 − ry0)·χ_c(ry_w), so Σ_c col_w.(c)·z_c
                   is already the (1 − ry0)-weighted public term *)
                let pub_eval = ref col_w.(0) in
                List.iteri
                  (fun i x -> pub_eval := Fr.add !pub_eval (Fr.mul x col_w.(i + 1)))
                  public_inputs;
                let z_eval = Fr.add !pub_eval (Fr.mul ry0 w_eval) in
                if Fr.equal e2 (Fr.mul m_eval z_eval) then Some d else None
        end
    end
  end

(* Evaluate a weighted sum of deferred relations as one MSM over
   [generators; U; Q; all per-proof points]. *)
let check_deferred key weighted =
  let ncols = 1 lsl key.wcols in
  let gen_scalars = Array.make ncols Fr.zero in
  let blinder_scalar = ref Fr.zero in
  let q_scalar = ref Fr.zero in
  let extra = ref [] in
  List.iter
    (fun (z, d) ->
      Array.iteri
        (fun j s -> gen_scalars.(j) <- Fr.add gen_scalars.(j) (Fr.mul z s))
        d.d_gen;
      blinder_scalar := Fr.add !blinder_scalar (Fr.mul z d.d_blinder);
      q_scalar := Fr.add !q_scalar (Fr.mul z d.d_q);
      List.iter (fun (p, s) -> extra := (p, Fr.mul z s) :: !extra) d.d_points)
    weighted;
  let tail =
    (Pedersen.blinder key.pedersen, !blinder_scalar)
    :: (Ipa.q_generator, !q_scalar)
    :: !extra
  in
  let points =
    Array.append
      (Array.sub (Pedersen.generators key.pedersen) 0 ncols)
      (Array.of_list (List.map fst tail))
  in
  let scalars = Array.append gen_scalars (Array.of_list (List.map snd tail)) in
  G1.equal (Msm_g1.msm points scalars) G1.zero

let verify key t ~public_inputs proof =
  match verify_deferred key t ~public_inputs proof with
  | None -> false
  | Some d ->
    Span.with_span "verify.opening_msm" (fun () -> check_deferred key [ (Fr.one, d) ])

(* Structural well-formedness relative to a key: shape faults a batch
   verifier reports by index (attributable to one member) rather than
   folding into the batch-wide cryptographic verdict. *)
let well_formed key t ~public_inputs proof =
  List.length public_inputs = t.num_inputs
  && Array.length proof.comm_rows = 1 lsl key.wrows
  && List.length proof.sc1 = t.mu
  && List.length proof.sc2 = t.nu
  && (match proof.opening with
     | Fold_opening { folded; _ } -> Array.length folded = 1 lsl key.wcols
     | Ipa_opening { ipa; _ } ->
       Array.length ipa.Ipa.ls = key.wcols
       && Array.length ipa.Ipa.rs = key.wcols
       && 1 lsl key.wcols <= Pedersen.key_size key.pedersen)

type batch_result =
  | Batch_accepted
  | Batch_rejected
  | Batch_malformed of int list

(* Randomised batch verification, mirroring Groth16.verify_batch's
   transcript discipline: each instance's statement and full proof bytes
   are absorbed before any weight is drawn, so every z_i depends on the
   whole batch and a prover cannot craft member i against a weight it
   can predict. Field work (sumchecks, matrix evaluation) still runs per
   proof — it is inherently per-instance — but the group side collapses
   into one MSM: the z-weighted sum of the N deferred opening relations
   over the shared generator basis. A cheating opening survives only if
   its relation's nonzero residual is annihilated by the random weights,
   probability ≤ N/|F_r|. *)
let verify_batch key t instances =
  if instances = [] then invalid_arg "Spartan.verify_batch: empty batch";
  let bad =
    let _, acc =
      List.fold_left
        (fun (i, acc) (io, p) ->
          (i + 1, if well_formed key t ~public_inputs:io p then acc else i :: acc))
        (0, []) instances
    in
    List.rev acc
  in
  match bad with
  | _ :: _ -> Batch_malformed bad
  | [] ->
    let deferreds =
      List.map (fun (io, p) -> verify_deferred key t ~public_inputs:io p) instances
    in
    if List.exists Option.is_none deferreds then Batch_rejected
    else begin
      let tr = T.create ~label:"zkvc.spartan.batch" in
      T.absorb_int tr ~label:"n" (List.length instances);
      T.absorb_int tr ~label:"mu" t.mu;
      T.absorb_int tr ~label:"nu" t.nu;
      List.iter
        (fun (io, p) ->
          Ch.absorb_list tr ~label:"io" io;
          T.absorb_bytes tr ~label:"proof" (proof_to_bytes p))
        instances;
      let weighted =
        List.map (fun d -> (Ch.challenge tr ~label:"z", Option.get d)) deferreds
      in
      let ok =
        Span.with_span "verify.batch_msm" (fun () -> check_deferred key weighted)
      in
      if ok then Batch_accepted else Batch_rejected
    end

(* Fault-injection sites for the adversary harness (lib/adversary). The
   proof type is abstract in the interface, so the enumeration of
   mutable components lives here rather than duplicating the layout
   outside. Scalars are bumped by one, points by the generator: every
   mutated proof still parses and every component is a valid field /
   group element, so rejection must come from the protocol checks. *)
module Mutate = struct
  type site =
    | Comm_row of int
    | Sc1_round of int
    | Claim_va
    | Claim_vb
    | Claim_vc
    | Sc2_round of int
    | Folded of int
    | Fold_blind
    | Ipa_blind
    | Ipa_eval
    | Ipa_l of int
    | Ipa_r of int
    | Ipa_a_final

  let site_name = function
    | Comm_row i -> Printf.sprintf "comm_row[%d]" i
    | Sc1_round r -> Printf.sprintf "sc1.round[%d]" r
    | Claim_va -> "claim.va"
    | Claim_vb -> "claim.vb"
    | Claim_vc -> "claim.vc"
    | Sc2_round r -> Printf.sprintf "sc2.round[%d]" r
    | Folded j -> Printf.sprintf "opening.folded[%d]" j
    | Fold_blind -> "opening.fold_blind"
    | Ipa_blind -> "opening.ipa_blind"
    | Ipa_eval -> "opening.ipa_eval"
    | Ipa_l i -> Printf.sprintf "opening.ipa.l[%d]" i
    | Ipa_r i -> Printf.sprintf "opening.ipa.r[%d]" i
    | Ipa_a_final -> "opening.ipa.a_final"

  let sites p =
    let comm = List.init (Array.length p.comm_rows) (fun i -> Comm_row i) in
    let sc1 = List.init (List.length p.sc1) (fun r -> Sc1_round r) in
    let sc2 = List.init (List.length p.sc2) (fun r -> Sc2_round r) in
    let opening =
      match p.opening with
      | Fold_opening { folded; _ } ->
        List.init (Array.length folded) (fun j -> Folded j) @ [ Fold_blind ]
      | Ipa_opening { ipa; _ } ->
        [ Ipa_blind; Ipa_eval ]
        @ List.init (Array.length ipa.Ipa.ls) (fun i -> Ipa_l i)
        @ List.init (Array.length ipa.Ipa.rs) (fun i -> Ipa_r i)
        @ [ Ipa_a_final ]
    in
    comm @ sc1 @ [ Claim_va; Claim_vb; Claim_vc ] @ sc2 @ opening

  let bump_fr x = Fr.add x Fr.one
  let bump_g1 p = G1.add p G1.generator

  let bump_at i f a = Array.mapi (fun j v -> if i = j then f v else v) a

  (* perturb the first evaluation of round [r] *)
  let bump_sc r sc =
    List.mapi (fun i evals -> if i = r then bump_at 0 bump_fr evals else evals) sc

  let apply site p =
    match (site, p.opening) with
    | Comm_row i, _ -> { p with comm_rows = bump_at i bump_g1 p.comm_rows }
    | Sc1_round r, _ -> { p with sc1 = bump_sc r p.sc1 }
    | Claim_va, _ -> { p with va = bump_fr p.va }
    | Claim_vb, _ -> { p with vb = bump_fr p.vb }
    | Claim_vc, _ -> { p with vc = bump_fr p.vc }
    | Sc2_round r, _ -> { p with sc2 = bump_sc r p.sc2 }
    | Folded j, Fold_opening o ->
      { p with opening = Fold_opening { o with folded = bump_at j bump_fr o.folded } }
    | Fold_blind, Fold_opening o ->
      { p with opening = Fold_opening { o with fold_blind = bump_fr o.fold_blind } }
    | Ipa_blind, Ipa_opening o ->
      { p with opening = Ipa_opening { o with blind = bump_fr o.blind } }
    | Ipa_eval, Ipa_opening o ->
      { p with opening = Ipa_opening { o with w_eval = bump_fr o.w_eval } }
    | Ipa_l i, Ipa_opening o ->
      { p with
        opening =
          Ipa_opening { o with ipa = { o.ipa with Ipa.ls = bump_at i bump_g1 o.ipa.Ipa.ls } } }
    | Ipa_r i, Ipa_opening o ->
      { p with
        opening =
          Ipa_opening { o with ipa = { o.ipa with Ipa.rs = bump_at i bump_g1 o.ipa.Ipa.rs } } }
    | Ipa_a_final, Ipa_opening o ->
      { p with
        opening =
          Ipa_opening { o with ipa = { o.ipa with Ipa.a_final = bump_fr o.ipa.Ipa.a_final } } }
    | (Folded _ | Fold_blind), Ipa_opening _
    | (Ipa_blind | Ipa_eval | Ipa_l _ | Ipa_r _ | Ipa_a_final), Fold_opening _ ->
      invalid_arg "Spartan.Mutate.apply: site does not match the proof's opening mode"
end
