(* The R1CS optimiser: pass-exact eliminations on an injected-redundancy
   circuit, satisfiability equivalence on random circuits, witness-map
   round trips, canonical-layout preservation, and end-to-end proofs of
   optimised systems on both backends. *)

module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Opt = Api.Opt
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec = Mspec.Make (Fr)
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module G = Zkvc_r1cs.Gadgets.Make (Fr)
module L = Zkvc_r1cs.Lc.Make (Fr)
module Cs = Zkvc_r1cs.Constraint_system.Make (Fr)
module Wire = Zkvc_serve.Wire
module Compiler = Zkvc_zkml.Compiler
module Ops = Zkvc_zkml.Ops
module Nl = Zkvc.Nonlinear
module Models = Zkvc_nn.Models
module Attrib = Zkvc_obs.Attrib

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let fr = Fr.of_int

(* Structural fingerprint of a system, for determinism checks. *)
let cs_fingerprint (cs : Cs.t) =
  let lc l =
    String.concat "+"
      (List.map (fun (v, c) -> Fr.to_string c ^ "w" ^ string_of_int v) (L.terms l))
  in
  let row { Cs.a; b; c; label } =
    Printf.sprintf "%s|%s|%s|%s" label (lc a) (lc b) (lc c)
  in
  Printf.sprintf "i%d/x%d/%s" cs.Cs.num_inputs cs.Cs.num_aux
    (String.concat ";" (Array.to_list (Array.map row cs.Cs.constraints)))

let pass_named (r : Opt.report) name =
  List.find (fun (p : Opt.pass_delta) -> p.Opt.pass = name) r.Opt.passes

(* ---- injected-redundancy circuit: exact per-pass eliminations ---- *)

(* One instance of each redundancy the pipeline targets:
   - [pin]: a wire equated to a constant        -> const_fold drops 1 row
   - [dup]: two wires equated, twice            -> unify drops 2 rows
   - [deadrow]: (u - v)*x = 0, an identity once u = v -> dce drops it
   - [shared]: the same 4-term LC in three A slots     -> cse shares it *)
let build_redundant () =
  let b = Bld.create () in
  let y = Bld.alloc_input b (fr 30) in
  ignore y;
  Bld.in_region b "pin" (fun () ->
      let w = Bld.alloc b (fr 5) in
      Bld.enforce b ~label:"pin"
        (L.sub (L.of_var w) (L.constant (fr 5)))
        (L.constant Fr.one) L.zero);
  let u, v =
    Bld.in_region b "dup" (fun () ->
        let u = Bld.alloc b (fr 7) and v = Bld.alloc b (fr 7) in
        let eq = L.sub (L.of_var u) (L.of_var v) in
        Bld.enforce b ~label:"dup" eq (L.constant Fr.one) L.zero;
        Bld.enforce b ~label:"dup" eq (L.constant Fr.one) L.zero;
        (u, v))
  in
  Bld.in_region b "deadrow" (fun () ->
      let x = Bld.alloc b (fr 11) in
      Bld.enforce b ~label:"deadrow"
        (L.sub (L.of_var u) (L.of_var v))
        (L.of_var x) L.zero);
  Bld.in_region b "shared" (fun () ->
      let xs = List.map (fun i -> Bld.alloc b (fr i)) [ 1; 2; 3; 4 ] in
      let s = List.fold_left (fun acc x -> L.add acc (L.of_var x)) L.zero xs in
      List.iter
        (fun i ->
          let a = Bld.alloc b (fr i) in
          ignore (G.mul b s (L.of_var a)))
        [ 2; 3; 4 ]);
  b

let test_injected_redundancy () =
  let b = build_redundant () in
  let cs, assignment, tree, prov = Bld.finalize_with_provenance b in
  Cs.check_satisfied cs assignment;
  let res =
    Opt.optimize
      ~provenance:
        { Opt.constraint_region = prov.Bld.constraint_region;
          wire_region = prov.Bld.wire_region;
          tree }
      cs
  in
  let r = res.Opt.report in
  (* per-pass action counts: 1 pin, 2 unify hits (merge + implied dup),
     1 dead row, 1 shared LC *)
  check_int "const_fold actions" 1 (pass_named r "const_fold").Opt.actions;
  check_int "unify actions" 2 (pass_named r "unify").Opt.actions;
  check_int "dce actions" 3 (pass_named r "dce").Opt.actions;
  (* the dead row plus the two dead aux wires it was holding alive *)
  check_int "cse actions" 1 (pass_named r "cse").Opt.actions;
  (* per-pass constraint eliminations: cse *adds* its defining row *)
  check_int "const_fold rows" 1 (pass_named r "const_fold").Opt.delta.Opt.d_constraints;
  check_int "unify rows" 2 (pass_named r "unify").Opt.delta.Opt.d_constraints;
  check_int "dce rows" 1 (pass_named r "dce").Opt.delta.Opt.d_constraints;
  check_int "cse rows" (-1) (pass_named r "cse").Opt.delta.Opt.d_constraints;
  (* ledger: 7 rows before, 3 mul rows + 1 cse definition after *)
  check_int "before rows" 7 r.Opt.before.Cs.constraints;
  check_int "after rows" 4 r.Opt.after.Cs.constraints;
  check_int "after rows (cs)" 4 (Cs.num_constraints res.Opt.cs);
  (* every action lands in its own region *)
  let region_of pass =
    match (pass_named r pass).Opt.by_region with
    | (path, _) :: _ -> path
    | [] -> "(none)"
  in
  Alcotest.(check string) "pin debited to its region" "pin" (region_of "const_fold");
  Alcotest.(check string) "dup debited to its region" "dup" (region_of "unify");
  Alcotest.(check string) "share debited to its region" "shared" (region_of "cse");
  (* the rebuilt attribution tree matches the optimised ledger exactly *)
  (match res.Opt.regions with
   | None -> Alcotest.fail "no rebuilt region tree"
   | Some t ->
     let total = Zkvc_obs.Attrib.total t in
     check_int "tree constraints" (Cs.num_constraints res.Opt.cs)
       total.Zkvc_obs.Attrib.constraints;
     let s = Cs.stats res.Opt.cs in
     check_int "tree nnz"
       (s.Cs.nonzero_a + s.Cs.nonzero_b + s.Cs.nonzero_c)
       (total.Zkvc_obs.Attrib.nnz_a + total.Zkvc_obs.Attrib.nnz_b
      + total.Zkvc_obs.Attrib.nnz_c));
  (* witness equivalence both ways *)
  let z' = Opt.expand_witness res.Opt.map assignment in
  check_bool "optimised satisfied" true (Cs.is_satisfied res.Opt.cs z');
  let z'' = Opt.restore_witness res.Opt.map z' in
  check_bool "restored satisfies original" true (Cs.is_satisfied cs z'');
  check_bool "publics preserved" true (Fr.equal z'.(1) assignment.(1))

(* A contradictory constant row must be kept as a falsifier: the
   acceptance set never widens. *)
let test_contradiction_kept () =
  let b = Bld.create () in
  let w = Bld.alloc b (fr 5) in
  (* w = 5 and w = 6: the second pin must survive as an unsatisfiable row *)
  Bld.enforce b (L.sub (L.of_var w) (L.constant (fr 5))) (L.constant Fr.one) L.zero;
  Bld.enforce b (L.sub (L.of_var w) (L.constant (fr 6))) (L.constant Fr.one) L.zero;
  let cs, assignment = Bld.finalize b in
  check_bool "original unsatisfied" false (Cs.is_satisfied cs assignment);
  let res = Opt.optimize cs in
  let z' = Opt.expand_witness res.Opt.map assignment in
  check_bool "optimised still unsatisfiable" false (Cs.is_satisfied res.Opt.cs z');
  check_bool "some row survives" true (Cs.num_constraints res.Opt.cs >= 1)

(* Publics are never merged away: an equality between two public wires
   stays, and num_inputs is exact. *)
let test_public_guard () =
  let b = Bld.create () in
  let p1 = Bld.alloc_input b (fr 9) and p2 = Bld.alloc_input b (fr 9) in
  Bld.enforce b (L.sub (L.of_var p1) (L.of_var p2)) (L.constant Fr.one) L.zero;
  let q = Bld.alloc b (fr 9) in
  Bld.enforce b (L.sub (L.of_var p1) (L.of_var q)) (L.constant Fr.one) L.zero;
  let cs, assignment = Bld.finalize b in
  let res = Opt.optimize cs in
  check_int "num_inputs preserved" (Cs.num_inputs cs) (Cs.num_inputs res.Opt.cs);
  (* the public-public equality row is refused; the public-aux one merges *)
  check_int "public equality kept" 1 (Cs.num_constraints res.Opt.cs);
  let z' = Opt.expand_witness res.Opt.map assignment in
  check_bool "satisfied" true (Cs.is_satisfied res.Opt.cs z');
  check_bool "public 1 value" true (Fr.equal z'.(1) (fr 9));
  check_bool "public 2 value" true (Fr.equal z'.(2) (fr 9))

(* ---- qcheck: satisfiability equivalence on random circuits ---- *)

(* Random circuits over the repository's gadgets with redundancies
   sprinkled in: for the honest witness z,
     optimised(expand z) /\ original(restore (expand z))
   and a corrupted expanded witness never satisfies the optimised system
   while the honest one does not satisfy the corrupted statement. *)
let prop_equivalence =
  QCheck.Test.make ~name:"optimiser preserves satisfiability" ~count:60
    QCheck.(
      pair (list_of_size (Gen.int_range 1 8) (int_range 1 50)) (int_range 0 5))
    (fun (xs, shape) ->
      let b = Bld.create () in
      let vars = List.map (fun v -> Bld.alloc b (fr v)) xs in
      let first = List.hd vars in
      let p = Bld.alloc_input b (fr (List.hd xs)) in
      G.assert_equal b (L.of_var p) (L.of_var first);
      (* a chain of products, with duplicated bindings along the way *)
      let acc =
        List.fold_left
          (fun acc v ->
            let prod = G.mul b acc (L.add (L.of_var v) (L.constant Fr.one)) in
            if shape land 1 = 0 then begin
              (* redundant alias of the product *)
              let alias = Bld.alloc b (Bld.value b prod) in
              G.assert_equal b (L.of_var alias) (L.of_var prod);
              L.of_var alias
            end
            else L.of_var prod)
          (L.of_var first) vars
      in
      if shape land 2 = 0 then begin
        (* wire pinned to a constant *)
        let k = Bld.alloc b (fr 41) in
        G.assert_equal b (L.of_var k) (L.constant (fr 41));
        ignore (G.mul b acc (L.of_var k))
      end
      else ignore (G.is_zero b acc);
      if shape land 4 = 0 then
        (* shared multi-term LC (cse fodder) *)
        List.iter
          (fun v -> ignore (G.mul b acc (L.of_var v)))
          (match vars with v :: w :: _ -> [ v; w; v ] | _ -> vars);
      let cs, z = Bld.finalize b in
      let res = Opt.optimize cs in
      let z' = Opt.expand_witness res.Opt.map z in
      let z'' = Opt.restore_witness res.Opt.map z' in
      Cs.is_satisfied cs z
      && Cs.is_satisfied res.Opt.cs z'
      && Cs.is_satisfied cs z''
      && Fr.equal z'.(1) z.(1)
      (* corrupting the public input must break the optimised system too *)
      &&
      let bad = Array.copy z' in
      bad.(1) <- Fr.add bad.(1) Fr.one;
      not (Cs.is_satisfied res.Opt.cs bad))

(* Matmul pipeline at shrunk dims: optimisation commutes with the CRPC
   challenge and the optimised witness satisfies the optimised system,
   for every strategy. *)
let prop_matmul_pipeline =
  QCheck.Test.make ~name:"matmul pipeline equivalence" ~count:20
    QCheck.(
      quad (int_range 1 3) (int_range 1 3) (int_range 1 3) (int_range 0 3))
    (fun (a, n, bb, si) ->
      let d = Mspec.dims ~a ~n ~b:bb in
      let strategy = List.nth Mc.all_strategies si in
      let rng = Random.State.make [| a; n; bb; si |] in
      let x = Spec.random_matrix rng ~rows:a ~cols:n ~bound:64 in
      let w = Spec.random_matrix rng ~rows:n ~cols:bb ~bound:64 in
      let plain = Api.prepare strategy ~x ~w d in
      let opt = Api.prepare ~optimize:Opt.default strategy ~x ~w d in
      (* Fiat-Shamir challenge is derived before synthesis: identical *)
      (match (plain.Api.challenge, opt.Api.challenge) with
       | None, None -> true
       | Some c1, Some c2 -> Fr.equal c1 c2
       | _ -> false)
      && Cs.is_satisfied opt.Api.cs opt.Api.assignment
      && Cs.num_inputs opt.Api.cs = Cs.num_inputs plain.Api.cs
      (* restored witness satisfies the unoptimised system *)
      && (match opt.Api.opt with
          | None -> false
          | Some { Api.opt_map; _ } ->
            Cs.is_satisfied plain.Api.cs
              (Opt.restore_witness opt_map opt.Api.assignment))
      (* optimised publics = plain publics *)
      && List.for_all2 Fr.equal
           (Array.to_list (Array.sub plain.Api.assignment 1 (Cs.num_inputs plain.Api.cs)))
           (Array.to_list (Array.sub opt.Api.assignment 1 (Cs.num_inputs opt.Api.cs))))

(* zkml-compiled circuits at shrunk dims: the optimiser preserves
   satisfiability of every op the model compiler emits, under every
   matmul strategy. *)
let prop_zkml_equivalence =
  QCheck.Test.make ~name:"zkml compiled op equivalence" ~count:16
    QCheck.(pair (int_range 0 3) (int_range 0 3))
    (fun (opi, si) ->
      let cfg = Nl.default_config in
      let strategy = List.nth Mc.all_strategies si in
      let op =
        List.nth
          [ Ops.Op_softmax { rows = 1; len = 4 };
            Ops.Op_gelu 8;
            Ops.Op_layernorm { rows = 1; cols = 4 };
            Ops.Op_matmul (Mspec.dims ~a:2 ~n:2 ~b:2) ]
          opi
      in
      let b = Compiler.Counter.B.create () in
      Compiler.Counter.build_op ~strategy b cfg op;
      let cs, z = Compiler.Counter.B.finalize b in
      let res = Opt.optimize cs in
      let z' = Opt.expand_witness res.Opt.map z in
      Cs.is_satisfied cs z
      && Cs.is_satisfied res.Opt.cs z'
      && Cs.is_satisfied cs (Opt.restore_witness res.Opt.map z'))

(* ...and an optimised compiled circuit actually proves and verifies on
   both backends, straight through keygen/prove_with/verify_with. *)
let test_zkml_prove_optimised () =
  let cfg = Nl.default_config in
  let b = Compiler.Counter.B.create () in
  Compiler.Counter.build_op b cfg (Ops.Op_softmax { rows = 1; len = 4 });
  let cs, z = Compiler.Counter.B.finalize b in
  let res = Opt.optimize cs in
  let z' = Opt.expand_witness res.Opt.map z in
  check_bool "optimised compiled circuit satisfied" true
    (Cs.is_satisfied res.Opt.cs z');
  let publics = Array.to_list (Array.sub z' 1 (Cs.num_inputs res.Opt.cs)) in
  List.iter
    (fun backend ->
      let rng = Random.State.make [| 3 |] in
      let keys = Api.keygen ~rng backend res.Opt.cs in
      let proof = Api.prove_with ~rng keys z' in
      check_bool
        (Api.backend_name backend ^ " optimised softmax circuit verifies")
        true
        (Api.verify_with keys ~public_inputs:publics proof))
    [ Api.Backend_groth16; Api.Backend_spartan ]

(* The pipeline wins on a real model: the ViT token mixer (cifar10, zkvc
   variant, shrunk by 24) loses nonzeros, and the region tree re-attributed
   through the optimiser still sums to the optimised ledger. *)
let test_vit_nnz_win () =
  let arch = Models.shrink Models.vit_cifar10 ~factor:24 in
  let layers = Compiler.compile arch Models.Zkvc_hybrid in
  let b = Compiler.synthesize ~strategy:Mc.Crpc_psq Nl.default_config layers in
  let cs, _, tree, prov = Compiler.Counter.B.finalize_with_provenance b in
  let res =
    Opt.optimize
      ~provenance:
        { Opt.constraint_region = prov.Compiler.Counter.B.constraint_region;
          wire_region = prov.Compiler.Counter.B.wire_region;
          tree }
      cs
  in
  let nnz (s : Cs.stats) = s.Cs.nonzero_a + s.Cs.nonzero_b + s.Cs.nonzero_c in
  let before = nnz res.Opt.report.Opt.before and after = nnz res.Opt.report.Opt.after in
  check_bool (Printf.sprintf "total nnz falls (%d -> %d)" before after) true (after < before);
  match res.Opt.regions with
  | None -> Alcotest.fail "optimiser dropped the region tree"
  | Some tree ->
    check_int "region constraint total = optimised ledger"
      (Cs.stats res.Opt.cs).Cs.constraints
      (Attrib.total tree).Attrib.constraints

(* ---- end-to-end: prove and verify optimised circuits, both backends ---- *)

let test_prove_both_backends () =
  let d = Mspec.dims ~a:2 ~n:2 ~b:2 in
  List.iter
    (fun backend ->
      List.iter
        (fun strategy ->
          let rng = Random.State.make [| 77 |] in
          let x = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
          let w = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
          let _, m = Api.run ~rng ~optimize:Opt.default backend strategy ~x ~w d in
          check_bool
            (Printf.sprintf "%s/%s optimised proof verifies"
               (Api.backend_name backend) (Mc.strategy_name strategy))
            true m.Api.verified)
        Mc.all_strategies)
    [ Api.Backend_groth16; Api.Backend_spartan ]

(* circuit_shape ?optimize reproduces prepare ?optimize's system exactly
   (the verifier-side resynthesis key files rely on) *)
let test_shape_determinism () =
  List.iter
    (fun strategy ->
      let d = Mspec.dims ~a:2 ~n:3 ~b:2 in
      let rng = Random.State.make [| 5 |] in
      let x = Spec.random_matrix rng ~rows:2 ~cols:3 ~bound:64 in
      let w = Spec.random_matrix rng ~rows:3 ~cols:2 ~bound:64 in
      let prep = Api.prepare ~optimize:Opt.default strategy ~x ~w d in
      let shape =
        Api.circuit_shape ~optimize:Opt.default strategy
          ?challenge:prep.Api.challenge d
      in
      Alcotest.(check string)
        (Mc.strategy_name strategy ^ " shape deterministic")
        (cs_fingerprint prep.Api.cs) (cs_fingerprint shape))
    Mc.all_strategies

(* key files carry the optimiser config and resynthesise the optimised
   shape on decode; unoptimised files stay byte-identical to the
   pre-optimiser format *)
let test_key_file_roundtrip () =
  let d = Mspec.dims ~a:2 ~n:2 ~b:2 in
  let strategy = Mc.Crpc_psq in
  let rng = Random.State.make [| 9 |] in
  let x = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
  let w = Spec.random_matrix rng ~rows:2 ~cols:2 ~bound:64 in
  let prep = Api.prepare ~optimize:Opt.default strategy ~x ~w d in
  let keys = Api.keygen ~rng Api.Backend_spartan prep.Api.cs in
  let proof = Api.prove_with ~rng keys prep.Api.assignment in
  let publics =
    Array.to_list (Array.sub prep.Api.assignment 1 (Cs.num_inputs prep.Api.cs))
  in
  let kf =
    { Wire.kf_backend = Api.Backend_spartan;
      kf_strategy = strategy;
      kf_dims = d;
      kf_challenge = prep.Api.challenge;
      kf_opt = Some Opt.default;
      kf_key_id = String.make 32 'k';
      kf_keys = keys }
  in
  match Wire.decode_key_file (Wire.encode_key_file kf) with
  | Error e -> Alcotest.failf "decode failed: %s" (Wire.error_to_string e)
  | Ok kf' ->
    check_bool "config survives" true (kf'.Wire.kf_opt = Some Opt.default);
    check_bool "decoded keys verify the optimised proof" true
      (Api.verify_with kf'.Wire.kf_keys ~public_inputs:publics proof);
    (* an unoptimised file must not grow the format *)
    let plain = Api.prepare strategy ~x ~w d in
    let keys0 = Api.keygen ~rng Api.Backend_spartan plain.Api.cs in
    let kf0 = { kf with Wire.kf_opt = None; kf_keys = keys0 } in
    (match Wire.decode_key_file (Wire.encode_key_file kf0) with
     | Ok kf0' -> check_bool "no config decodes as None" true (kf0'.Wire.kf_opt = None)
     | Error e -> Alcotest.failf "plain decode failed: %s" (Wire.error_to_string e))

let () =
  Alcotest.run "zkvc_opt"
    [ ( "passes",
        [ Alcotest.test_case "injected redundancy" `Quick test_injected_redundancy;
          Alcotest.test_case "contradiction kept" `Quick test_contradiction_kept;
          Alcotest.test_case "public guard" `Quick test_public_guard ] );
      ( "equivalence",
        [ QCheck_alcotest.to_alcotest prop_equivalence;
          QCheck_alcotest.to_alcotest prop_matmul_pipeline;
          QCheck_alcotest.to_alcotest prop_zkml_equivalence ] );
      ( "pipeline",
        [ Alcotest.test_case "prove both backends" `Slow test_prove_both_backends;
          Alcotest.test_case "zkml optimised prove" `Slow test_zkml_prove_optimised;
          Alcotest.test_case "vit nnz win" `Slow test_vit_nnz_win;
          Alcotest.test_case "shape determinism" `Quick test_shape_determinism;
          Alcotest.test_case "key file roundtrip" `Quick test_key_file_roundtrip ] ) ]
