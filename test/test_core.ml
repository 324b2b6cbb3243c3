(* zkVC core: CRPC / PSQ matmul circuits and the non-linear gadgets. *)

module Mspec = Zkvc.Matmul_spec
module Mcirc = Zkvc.Matmul_circuit
module Nl = Zkvc.Nonlinear

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

module Make_suite (F : Zkvc_field.Field_intf.S) (Name : sig
  val name : string
end) =
struct
  module Mc = Mcirc.Make (F)
  module Spec = Mspec.Make (F)
  module Bld = Zkvc_r1cs.Builder.Make (F)
  module Cs = Zkvc_r1cs.Constraint_system.Make (F)
  module Lc = Zkvc_r1cs.Lc.Make (F)
  module NlG = Nl.Make (F)

  let st = Random.State.make [| 41; 42 |]
  let n s = Name.name ^ " " ^ s

  let build_and_check strategy d =
    let x = Spec.random_matrix st ~rows:d.Mspec.a ~cols:d.Mspec.n ~bound:100 in
    let w = Spec.random_matrix st ~rows:d.Mspec.n ~cols:d.Mspec.b ~bound:100 in
    let y = Spec.multiply x w in
    let challenge =
      if Mcirc.uses_challenge strategy then Some (Mc.derive_challenge ~x ~w ~y)
      else None
    in
    let b = Bld.create () in
    let wires = Mc.build b strategy ?challenge ~x ~w ~y d in
    let cs, assignment = Bld.finalize b in
    Cs.check_satisfied cs assignment;
    (cs, assignment, wires, x, w, y)

  let dims_list = [ Mspec.dims ~a:2 ~n:3 ~b:2; Mspec.dims ~a:3 ~n:4 ~b:5; Mspec.dims ~a:1 ~n:1 ~b:1; Mspec.dims ~a:4 ~n:8 ~b:4 ]

  let test_all_strategies_satisfied () =
    List.iter
      (fun strategy ->
        List.iter
          (fun d ->
            let _ = build_and_check strategy d in
            ())
          dims_list)
      Mcirc.all_strategies

  let test_constraint_counts () =
    List.iter
      (fun strategy ->
        List.iter
          (fun d ->
            let cs, _, _, _, _, _ = build_and_check strategy d in
            check_int
              (n (Printf.sprintf "%s %s" (Mcirc.strategy_name strategy)
                    (Format.asprintf "%a" Mspec.pp_dims d)))
              (Mcirc.expected_constraints strategy d)
              (Cs.num_constraints cs))
          dims_list)
      Mcirc.all_strategies

  let test_crpc_fewer_constraints () =
    let d = Mspec.dims ~a:4 ~n:8 ~b:4 in
    let counts =
      List.map
        (fun s ->
          let cs, _, _, _, _, _ = build_and_check s d in
          (s, Cs.num_constraints cs))
        Mcirc.all_strategies
    in
    let get s = List.assoc s counts in
    check_bool (n "crpc << vanilla") true (get Mcirc.Crpc < get Mcirc.Vanilla / 10);
    check_bool (n "psq trims vanilla") true (get Mcirc.Vanilla_psq < get Mcirc.Vanilla);
    check_bool (n "crpc+psq smallest") true
      (List.for_all (fun (_, c) -> get Mcirc.Crpc_psq <= c) counts)

  let test_psq_reduces_variables_and_left_wires () =
    let d = Mspec.dims ~a:4 ~n:8 ~b:4 in
    let stats s =
      let cs, _, _, _, _, _ = build_and_check s d in
      Cs.stats cs
    in
    let vanilla = stats Mcirc.Vanilla and vpsq = stats Mcirc.Vanilla_psq in
    check_bool (n "psq fewer variables") true (vpsq.Cs.variables < vanilla.Cs.variables);
    check_bool (n "psq fewer left wires") true (vpsq.Cs.nonzero_a < vanilla.Cs.nonzero_a);
    let crpc = stats Mcirc.Crpc and cpsq = stats Mcirc.Crpc_psq in
    check_bool (n "crpc+psq fewer variables than crpc") true
      (cpsq.Cs.variables < crpc.Cs.variables)

  (* soundness: a wrong Y must be caught by every strategy (for CRPC, at a
     fresh honest challenge, i.e. the Fiat–Shamir binding) *)
  let test_wrong_output_unsatisfiable () =
    let d = Mspec.dims ~a:3 ~n:4 ~b:3 in
    List.iter
      (fun strategy ->
        let x = Spec.random_matrix st ~rows:3 ~cols:4 ~bound:50 in
        let w = Spec.random_matrix st ~rows:4 ~cols:3 ~bound:50 in
        let y = Spec.multiply x w in
        (* corrupt one output, then rerun the honest pipeline: the honest
           challenge is derived from the corrupted y *)
        let y_bad = Array.map Array.copy y in
        y_bad.(1).(2) <- F.add y_bad.(1).(2) F.one;
        let challenge =
          if Mcirc.uses_challenge strategy then
            Some (Mc.derive_challenge ~x ~w ~y:y_bad)
          else None
        in
        let b = Bld.create () in
        let wires = Mc.build b strategy ?challenge ~x ~w ~y d in
        (* overwrite the y wires' assignment with the corrupted values:
           rebuild manually by constructing a raw assignment *)
        let cs, assignment = Bld.finalize b in
        (* find the y wire positions: they are inputs (y_public default) *)
        let bad = Array.copy assignment in
        (* y wires were allocated as inputs in row-major order after x, w *)
        ignore wires;
        let ni = Cs.num_inputs cs in
        check_int (n "y are the only inputs") (3 * 3) ni;
        (* corrupt the same coordinate (row 1, col 2 → index 1*3+2) *)
        bad.(1 + (1 * 3) + 2) <- F.add bad.(1 + (1 * 3) + 2) F.one;
        check_bool
          (n (Mcirc.strategy_name strategy ^ " detects wrong y"))
          false (Cs.is_satisfied cs bad))
      Mcirc.all_strategies

  (* CRPC-specific: the polynomial identity must hold for EVERY challenge
     when Y is correct (exactness of the encoding, not just w.h.p.) *)
  let test_crpc_identity_exact () =
    let d = Mspec.dims ~a:3 ~n:5 ~b:4 in
    let x = Spec.random_matrix st ~rows:3 ~cols:5 ~bound:100 in
    let w = Spec.random_matrix st ~rows:5 ~cols:4 ~bound:100 in
    let y = Spec.multiply x w in
    for _ = 1 to 10 do
      let challenge = F.random st in
      let b = Bld.create () in
      let _ = Mc.build b Mcirc.Crpc_psq ~challenge ~x ~w ~y d in
      let cs, assignment = Bld.finalize b in
      Cs.check_satisfied cs assignment
    done

  (* ---- nonlinear gadgets ---- *)

  let cfg = Nl.default_config

  let test_exp_reference_accuracy () =
    let s = float_of_int (Nl.scale cfg) in
    List.iter
      (fun v ->
        let d = int_of_float (v *. s) in
        let approx = float_of_int (Nl.Reference.exp_neg cfg d) /. s in
        let exact = exp (-.v) in
        check_bool
          (n (Printf.sprintf "exp(-%.2f): |%.4f - %.4f| small" v approx exact))
          true
          (abs_float (approx -. exact) < 0.03))
      [ 0.0; 0.1; 0.5; 1.0; 2.0; 3.0; 5.0; 7.9; 8.5; 20.0 ]

  let test_exp_gadget_matches_reference () =
    List.iter
      (fun d ->
        let b = Bld.create () in
        let x = Bld.alloc b (F.of_int d) in
        let e = NlG.exp_neg b cfg (Lc.of_var x) in
        let got = Bld.value b e in
        check_bool
          (n (Printf.sprintf "exp gadget d=%d" d))
          true
          (F.equal got (F.of_int (Nl.Reference.exp_neg cfg d)));
        let cs, assignment = Bld.finalize b in
        Cs.check_satisfied cs assignment)
      [ 0; 1; 17; 255; 256; 1000; 2047; 2048; 4000; 65535 ]

  let test_softmax_gadget () =
    let xs_vals = [ 700; 512; 256; 640; 0 ] in
    let b = Bld.create () in
    let xs = List.map (fun v -> Bld.alloc b (F.of_int v)) xs_vals in
    let ys = NlG.softmax b cfg xs in
    let cs, assignment = Bld.finalize b in
    Cs.check_satisfied cs assignment;
    let got = List.map (fun y -> Bld.value b y) ys in
    let expect = Nl.Reference.softmax cfg (Array.of_list xs_vals) in
    List.iteri
      (fun i g ->
        check_bool (n (Printf.sprintf "softmax[%d]" i)) true (F.equal g (F.of_int expect.(i))))
      got;
    (* probabilities sum to ~1 (within quantization) *)
    let total = Array.fold_left ( + ) 0 expect in
    check_bool (n "sums to ~S") true (abs (total - Nl.scale cfg) < List.length xs_vals * 2)

  let test_gelu_gadget () =
    List.iter
      (fun v ->
        let b = Bld.create () in
        let x = Bld.alloc b (F.of_int v) in
        let y = NlG.gelu b cfg x in
        let cs, assignment = Bld.finalize b in
        Cs.check_satisfied cs assignment;
        check_bool
          (n (Printf.sprintf "gelu(%d)" v))
          true
          (F.equal (Bld.value b y) (F.of_int (Nl.Reference.gelu cfg v))))
      [ 0; 1; 128; 256; 1000 ]

  let prop_random_dims =
    let dims_gen st =
      Mspec.dims
        ~a:(1 + Random.State.int st 5)
        ~n:(1 + Random.State.int st 6)
        ~b:(1 + Random.State.int st 5)
    in
    let arb =
      QCheck.make
        ~print:(Format.asprintf "%a" Mspec.pp_dims)
        (fun st -> dims_gen st)
    in
    QCheck.Test.make ~name:(n "random dims: all strategies satisfiable + counts exact")
      ~count:30 arb (fun d ->
        List.for_all
          (fun strategy ->
            let cs, _, _, _, _, _ = build_and_check strategy d in
            Cs.num_constraints cs = Mcirc.expected_constraints strategy d)
          Mcirc.all_strategies)

  let suite =
    ( Name.name,
      [ QCheck_alcotest.to_alcotest prop_random_dims;
        Alcotest.test_case (n "all strategies satisfiable") `Quick test_all_strategies_satisfied;
        Alcotest.test_case (n "constraint count formulas") `Quick test_constraint_counts;
        Alcotest.test_case (n "crpc reduces constraints") `Quick test_crpc_fewer_constraints;
        Alcotest.test_case (n "psq reduces variables/left wires") `Quick
          test_psq_reduces_variables_and_left_wires;
        Alcotest.test_case (n "wrong output rejected") `Quick test_wrong_output_unsatisfiable;
        Alcotest.test_case (n "crpc identity exact") `Quick test_crpc_identity_exact;
        Alcotest.test_case (n "exp reference accuracy") `Quick test_exp_reference_accuracy;
        Alcotest.test_case (n "exp gadget = reference") `Quick test_exp_gadget_matches_reference;
        Alcotest.test_case (n "softmax gadget") `Quick test_softmax_gadget;
        Alcotest.test_case (n "gelu gadget") `Quick test_gelu_gadget ] )
end

module Small = Make_suite (Zkvc_field.Fsmall) (struct let name = "fsmall" end)
module Big = Make_suite (Zkvc_field.Fr) (struct let name = "fr" end)

(* end-to-end through the Api on both backends, small dims *)
let api_tests =
  let module Api = Zkvc.Api in
  let module Spec = Mspec.Make (Zkvc_field.Fr) in
  let st = Random.State.make [| 123 |] in
  let d = Mspec.dims ~a:3 ~n:4 ~b:3 in
  let x = Spec.random_matrix st ~rows:3 ~cols:4 ~bound:100 in
  let w = Spec.random_matrix st ~rows:4 ~cols:3 ~bound:100 in
  [ Alcotest.test_case "groth16 backend end-to-end (all strategies)" `Slow (fun () ->
        List.iter
          (fun strategy ->
            let _proof, m = Api.run Api.Backend_groth16 strategy ~x ~w d in
            check_bool "verified" true m.Api.verified;
            check_bool "groth16 proof size" true (m.Api.proof_bytes = 256))
          Mcirc.all_strategies);
    Alcotest.test_case "spartan backend end-to-end (all strategies)" `Slow (fun () ->
        List.iter
          (fun strategy ->
            let _proof, m = Api.run Api.Backend_spartan strategy ~x ~w d in
            check_bool "verified" true m.Api.verified;
            check_bool "nonzero proof" true (m.Api.proof_bytes > 0))
          Mcirc.all_strategies) ]

let () =
  Alcotest.run "zkvc_core"
    [ Small.suite; Big.suite; ("api", api_tests) ]
