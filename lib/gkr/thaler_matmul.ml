module Fr = Zkvc_field.Fr
module Ml = Zkvc_poly.Multilinear.Make (Fr)
module Sc = Zkvc_spartan.Sumcheck.Make (Fr)
module T = Zkvc_transcript.Transcript
module Ch = T.Challenge (Fr)

type proof =
  { rounds : Sc.proof;
    va : Fr.t; (* Ã(rx, rk) *)
    vb : Fr.t (* B̃(rk, ry) *) }

let fr_bytes = 32

let proof_size_bytes p =
  List.fold_left (fun acc evals -> acc + (Array.length evals * fr_bytes)) (2 * fr_bytes)
    p.rounds

let proof_to_bytes p =
  let buf = Buffer.create (proof_size_bytes p) in
  List.iter (Array.iter (fun x -> Buffer.add_bytes buf (Fr.to_bytes x))) p.rounds;
  Buffer.add_bytes buf (Fr.to_bytes p.va);
  Buffer.add_bytes buf (Fr.to_bytes p.vb);
  Buffer.to_bytes buf

let log2_ceil n =
  let rec go k p = if p >= n then k else go (k + 1) (2 * p) in
  go 0 1

(* Flatten a matrix into the evaluation table of its MLE over
   (row-bits, col-bits), padding with zeros to powers of two. *)
let mle_table m ~rows_log ~cols_log =
  let rows = Array.length m in
  let table = Array.make (1 lsl (rows_log + cols_log)) Fr.zero in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j v -> table.((i lsl cols_log) lor j) <- v) row)
    m;
  ignore rows;
  table

let transpose m =
  let rows = Array.length m and cols = Array.length m.(0) in
  Array.init cols (fun j -> Array.init rows (fun i -> m.(i).(j)))

let check_rect name m =
  if Array.length m = 0 then invalid_arg (name ^ ": empty matrix");
  let cols = Array.length m.(0) in
  if cols = 0 then invalid_arg (name ^ ": empty row");
  Array.iter (fun row -> if Array.length row <> cols then invalid_arg (name ^ ": ragged")) m;
  cols

let dims_of a b =
  let n_a = check_rect "Thaler_matmul: a" a in
  let n_b = Array.length b in
  let cols_b = check_rect "Thaler_matmul: b" b in
  if n_a <> n_b then invalid_arg "Thaler_matmul: inner dimensions differ";
  (log2_ceil (Array.length a), log2_ceil n_a, log2_ceil cols_b)

let transcript_setup ~mu1 ~nu ~mu2 c =
  let tr = T.create ~label:"zkvc.thaler.matmul" in
  T.absorb_int tr ~label:"mu1" mu1;
  T.absorb_int tr ~label:"nu" nu;
  T.absorb_int tr ~label:"mu2" mu2;
  Array.iter (fun row -> Ch.absorb_array tr ~label:"c" row) c;
  let rx = Ch.challenges tr ~label:"rx" mu1 in
  let ry = Ch.challenges tr ~label:"ry" mu2 in
  (tr, rx, ry)

(* fold the first [k] variables of an MLE table with the challenges *)
let fold_prefix table vars point =
  let m = ref (Ml.of_evals table) in
  List.iter (fun r -> m := Ml.fix_first !m r) point;
  ignore vars;
  Ml.evals !m

let prove ~a ~b =
  let mu1, nu, mu2 = dims_of a b in
  let c = Fr.mat_mul a b in
  let tr, rx, ry = transcript_setup ~mu1 ~nu ~mu2 c in
  (* Ax(k) = Ã(rx, k);  By(k) = B̃(k, ry) via the transpose trick *)
  let ax = fold_prefix (mle_table a ~rows_log:mu1 ~cols_log:nu) mu1 rx in
  let by = fold_prefix (mle_table (transpose b) ~rows_log:mu2 ~cols_log:nu) mu2 ry in
  let rounds, _rk, finals = Sc.prove_product tr ~label:"thaler" ax by in
  { rounds; va = finals.(0); vb = finals.(1) }

let verify ~a ~b ~c proof =
  match dims_of a b with
  | exception Invalid_argument _ -> false
  | mu1, nu, mu2 ->
    if Array.length c <> Array.length a then false
    else begin
      let tr, rx, ry = transcript_setup ~mu1 ~nu ~mu2 c in
      (* claimed value: C̃(rx, ry), evaluated by the verifier *)
      let c_table = mle_table c ~rows_log:mu1 ~cols_log:mu2 in
      let claim = Ml.eval (Ml.of_evals c_table) (rx @ ry) in
      match Sc.verify tr ~label:"thaler" ~degree:2 ~claim proof.rounds with
      | None -> false
      | Some (final_claim, rk) ->
        if not (Fr.equal final_claim (Fr.mul proof.va proof.vb)) then false
        else begin
          (* open Ã and B̃ at (rx, rk) / (rk, ry) directly *)
          let a_eval = Ml.eval (Ml.of_evals (mle_table a ~rows_log:mu1 ~cols_log:nu)) (rx @ rk) in
          let b_eval =
            Ml.eval (Ml.of_evals (mle_table (transpose b) ~rows_log:mu2 ~cols_log:nu)) (ry @ rk)
          in
          Fr.equal proof.va a_eval && Fr.equal proof.vb b_eval
        end
    end
