(* Constraint provenance: qcheck invariants on region trees and their
   exporters, drift notes and per-region deltas, builder-level
   attribution (nesting, interning, the canonical wire permutation,
   --jobs), the golden Table II ledgers and region trees, and the
   structural cross-check between the zkml compiler's closed-form counts
   and a real region-attributed synthesis of the same model. *)

module Fr = Zkvc_field.Fr
module Attrib = Zkvc_obs.Attrib
module Json = Zkvc_obs.Json
module L = Zkvc_r1cs.Lc.Make (Fr)
module Cs = Zkvc_r1cs.Constraint_system.Make (Fr)
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module G = Zkvc_r1cs.Gadgets.Make (Fr)
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec_fr = Zkvc.Matmul_spec.Make (Fr)
module Nl = Zkvc.Nonlinear
module Models = Zkvc_nn.Models
module Ops = Zkvc_zkml.Ops
module Compiler = Zkvc_zkml.Compiler

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* qcheck: tree invariants and exporter round-trips                    *)

let gen_counts =
  let open QCheck.Gen in
  int_bound 50 >>= fun constraints ->
  int_bound 50 >>= fun variables ->
  int_bound 99 >>= fun nnz_a ->
  int_bound 99 >>= fun nnz_b ->
  int_bound 99 >|= fun nnz_c -> { Attrib.constraints; variables; nnz_a; nnz_b; nnz_c }

(* names deliberately include the characters the folded format must
   escape (';' and whitespace) *)
let gen_name = QCheck.Gen.oneofl [ "matmul"; "bits"; "soft max"; "a;b"; "x" ]

(* dyadic timing values so [=] stays exact through the JSON codec *)
let gen_time = QCheck.Gen.(map (fun k -> float_of_int k /. 1024.) (int_bound 4095))

let rec gen_tree depth =
  let open QCheck.Gen in
  gen_name >>= fun name ->
  gen_counts >>= fun self ->
  gen_time >>= fun witness_s ->
  gen_time >>= fun prove_share_s ->
  (if depth = 0 then return [] else list_size (int_bound 3) (gen_tree (depth - 1)))
  >|= fun children -> Attrib.make ~witness_s ~prove_share_s ~name ~self children

let tree_arb = QCheck.make ~print:Attrib.to_folded (gen_tree 3)

let qcheck_tree =
  [ QCheck.Test.make ~count:200 ~name:"total = self + sum of child totals" tree_arb
      (fun t ->
        let rec ok n =
          Attrib.total n
          = List.fold_left
              (fun acc c -> Attrib.add_counts acc (Attrib.total c))
              n.Attrib.self n.Attrib.children
          && List.for_all ok n.Attrib.children
        in
        ok t);
    QCheck.Test.make ~count:200 ~name:"folded text round-trips through the parser"
      tree_arb (fun t ->
        Attrib.parse_folded (Attrib.to_folded t) = Ok (Attrib.folded_entries t));
    QCheck.Test.make ~count:200 ~name:"folded weights sum to total constraints" tree_arb
      (fun t ->
        List.fold_left (fun acc (_, w) -> acc + w) 0 (Attrib.folded_entries t)
        = (Attrib.total t).Attrib.constraints);
    QCheck.Test.make ~count:200 ~name:"JSON round-trip is exact" tree_arb (fun t ->
        Attrib.of_json (Attrib.to_json t) = Ok t);
    QCheck.Test.make ~count:200 ~name:"strip_timing zeroes clocks, keeps structure"
      tree_arb (fun t ->
        let s = Attrib.strip_timing t in
        Attrib.total s = Attrib.total t
        && Attrib.total_witness_s s = 0.
        && Attrib.total_prove_s s = 0.
        && Attrib.strip_timing s = s);
    QCheck.Test.make ~count:200 ~name:"prove share apportions the whole measurement"
      tree_arb (fun t ->
        let nnz (c : Attrib.counts) = c.Attrib.nnz_a + c.Attrib.nnz_b + c.Attrib.nnz_c in
        let shared = Attrib.with_prove_share ~prove_s:1. t in
        if nnz (Attrib.total t) = 0 then shared = t
        else Float.abs (Attrib.total_prove_s shared -. 1.) < 1e-9);
    QCheck.Test.make ~count:200 ~name:"identical trees produce no drift notes" tree_arb
      (fun t -> Attrib.drift_notes ~old_:t ~new_:t = []) ]

let test_parse_folded_rejects () =
  check_bool "missing weight" true (Result.is_error (Attrib.parse_folded "a;b"));
  check_bool "non-integer weight" true (Result.is_error (Attrib.parse_folded "a;b x"));
  check_bool "negative weight" true (Result.is_error (Attrib.parse_folded "a;b -3"));
  check_bool "blank lines tolerated" true (Attrib.parse_folded "\n\na 1\n\n" = Ok ([ ([ "a" ], 1) ]))

let test_top_regions () =
  let c n = { Attrib.constraints = n; variables = 0; nnz_a = 0; nnz_b = 0; nnz_c = 0 } in
  let t =
    Attrib.make ~name:"all" ~self:(c 0)
      [ Attrib.make ~name:"matmul" ~self:(c 0) [ Attrib.make ~name:"crpc" ~self:(c 90) [] ];
        Attrib.make ~name:"softmax" ~self:(c 40) [];
        Attrib.make ~name:"gelu" ~self:(c 10) [] ]
  in
  Alcotest.(check (list (pair string int)))
    "hottest first, root segment dropped"
    [ ("matmul/crpc", 90); ("softmax", 40) ]
    (Attrib.top_regions ~n:2 t)

(* ------------------------------------------------------------------ *)
(* builder attribution                                                 *)

(* a tiny circuit with two regions: 1 mul in "left", 2 muls in
   "right/deep", one unattributed mul at top level *)
let build_sample () =
  let b = Bld.create () in
  let x = Bld.alloc_input b (Fr.of_int 3) in
  let y = Bld.alloc b (Fr.of_int 5) in
  Bld.in_region b "left" (fun () -> ignore (G.mul b (L.of_var x) (L.of_var y)));
  Bld.in_region b "right/deep" (fun () ->
      let p = G.mul b (L.of_var x) (L.of_var x) in
      ignore (G.mul b (L.of_var p) (L.of_var y)));
  ignore (G.mul b (L.of_var y) (L.of_var y));
  b

let find_child name t =
  match List.find_opt (fun c -> c.Attrib.name = name) t.Attrib.children with
  | Some c -> c
  | None -> Alcotest.failf "region %S not found" name

let test_builder_regions () =
  let b = build_sample () in
  let cs, assignment, tree = Bld.finalize_attributed b in
  Cs.check_satisfied cs assignment;
  check_int "every constraint attributed to the tree" (Cs.num_constraints cs)
    (Attrib.total tree).Attrib.constraints;
  check_int "left has one constraint" 1 (find_child "left" tree).Attrib.self.Attrib.constraints;
  let right = find_child "right" tree in
  check_int "right is pure nesting" 0 right.Attrib.self.Attrib.constraints;
  check_int "right/deep has two constraints" 2
    (find_child "deep" right).Attrib.self.Attrib.constraints;
  check_int "top-level mul lands on the root" 1 tree.Attrib.self.Attrib.constraints;
  check_bool "unattributed pct = 1/4" true (Attrib.unattributed_pct tree = 25.);
  (* wires: inputs x,y then one product per region-mul *)
  check_int "variables attributed" (Cs.num_vars cs - 1) (Attrib.total tree).Attrib.variables

let test_attribution_survives_permutation () =
  (* region_tree before finalize (builder order) and after (canonical
     input-first permutation) must agree: attribution is positional in
     synthesis order, not wire index *)
  let b = build_sample () in
  let before = Attrib.strip_timing (Bld.region_tree b) in
  let _cs, _assignment, tree = Bld.finalize_attributed b in
  check_bool "tree unchanged by the wire permutation" true
    (Attrib.strip_timing tree = before)

let test_reentered_region_accumulates () =
  let b = Bld.create () in
  let x = Bld.alloc b (Fr.of_int 2) in
  for _ = 1 to 3 do
    Bld.in_region b "loop" (fun () -> ignore (G.mul b (L.of_var x) (L.of_var x)))
  done;
  let tree = Bld.region_tree b in
  check_int "one interned child" 1 (List.length tree.Attrib.children);
  check_int "three constraints accumulated" 3
    (find_child "loop" tree).Attrib.self.Attrib.constraints

let prepare ~dims:(a, n, b) strategy =
  let rng = Random.State.make [| 11 |] in
  let x = Spec_fr.random_matrix rng ~rows:a ~cols:n ~bound:64 in
  let w = Spec_fr.random_matrix rng ~rows:n ~cols:b ~bound:64 in
  Api.prepare strategy ~x ~w (Mspec.dims ~a ~n ~b)

let prepared_tree ~jobs strategy =
  Zkvc_parallel.set_jobs jobs;
  Attrib.strip_timing (prepare ~dims:(3, 4, 2) strategy).Api.regions

let test_jobs_invariance () =
  let saved = Zkvc_parallel.jobs () in
  Fun.protect
    ~finally:(fun () -> Zkvc_parallel.set_jobs saved)
    (fun () ->
      List.iter
        (fun strategy ->
          check_bool
            (Mc.strategy_name strategy ^ " tree invariant under --jobs")
            true
            (prepared_tree ~jobs:1 strategy = prepared_tree ~jobs:4 strategy))
        Mc.all_strategies)

(* ------------------------------------------------------------------ *)
(* golden Table II ledgers and region trees                            *)

let counts constraints variables nnz_a nnz_b nnz_c =
  { Attrib.constraints; variables; nnz_a; nnz_b; nnz_c }

(* The paper's Table II CRPC x PSQ circuits at 3x4x8 (bench tab2 at
   --scale 16). Per strategy: the global ledger as (constraints,
   variables, nnz A/B/C) plus the witness length (num_aux), and the self
   counts of the strategy's region. Every tree is all/matmul/{alloc,
   <strategy>}, with the 68 wires of X, W and Y allocated in
   matmul/alloc. *)
let golden =
  [ (Mc.Vanilla, counts 120 165 192 120 120, 140, counts 120 96 192 120 120);
    (Mc.Vanilla_psq, counts 96 141 96 96 168, 116, counts 96 72 96 96 168);
    (Mc.Crpc, counts 5 73 16 33 28, 48, counts 5 4 16 33 28);
    (Mc.Crpc_psq, counts 4 72 12 32 30, 47, counts 4 3 12 32 30) ]

let golden_tree strategy self =
  let z = Attrib.zero_counts in
  Attrib.make ~name:"all" ~self:z
    [ Attrib.make ~name:"matmul" ~self:z
        [ Attrib.make ~name:"alloc" ~self:{ z with Attrib.variables = 68 } [];
          Attrib.make ~name:(Mc.strategy_name strategy) ~self [] ] ]

(* every golden strategy prepared at 3x4x8; shared by both tests *)
let golden_prepared =
  lazy
    (List.map
       (fun ((strategy, _, _, _) as g) -> (g, prepare ~dims:(3, 4, 8) strategy))
       golden)

let ledger (p : Api.prepared) =
  let s = Api.Cs.stats p.Api.cs in
  counts s.Api.Cs.constraints s.Api.Cs.variables s.Api.Cs.nonzero_a s.Api.Cs.nonzero_b
    s.Api.Cs.nonzero_c

(* the global ledger, field by field, and the witness length *)
let test_golden_ledgers () =
  let fields (c : Attrib.counts) =
    [ ("constraints", c.Attrib.constraints);
      ("variables", c.Attrib.variables);
      ("nnz_a", c.Attrib.nnz_a);
      ("nnz_b", c.Attrib.nnz_b);
      ("nnz_c", c.Attrib.nnz_c) ]
  in
  List.iter
    (fun ((strategy, want, want_witness, _), p) ->
      let label = Mc.strategy_name strategy in
      List.iter2
        (fun (f, w) (_, g) -> check_int (label ^ ": " ^ f) w g)
        (fields want)
        (fields (ledger p));
      check_int (label ^ ": witness") want_witness (Api.Cs.num_aux p.Api.cs))
    (Lazy.force golden_prepared)

(* the region trees, their reconciliation with the global ledger, and
   the paper's Table II mechanism: CRPC+PSQ strictly below vanilla in
   constraints and A/B-column nonzeros at the same dims *)
let test_golden_region_trees () =
  List.iter
    (fun ((strategy, _, _, self), p) ->
      let label = Mc.strategy_name strategy in
      Alcotest.(check (list string))
        (label ^ ": region drift") []
        (Attrib.drift_notes ~old_:(golden_tree strategy self) ~new_:p.Api.regions);
      check_int
        (label ^ ": region constraints sum to the ledger")
        (ledger p).Attrib.constraints
        (Attrib.total p.Api.regions).Attrib.constraints)
    (Lazy.force golden_prepared);
  let plain strategy =
    ledger (snd (List.find (fun ((s, _, _, _), _) -> s = strategy) (Lazy.force golden_prepared)))
  in
  let zkvc = plain Mc.Crpc_psq and vanilla = plain Mc.Vanilla in
  check_bool "CRPC+PSQ has strictly fewer constraints" true
    (zkvc.Attrib.constraints < vanilla.Attrib.constraints);
  check_bool "CRPC+PSQ has strictly fewer A-column nonzeros" true
    (zkvc.Attrib.nnz_a < vanilla.Attrib.nnz_a);
  check_bool "CRPC+PSQ has strictly fewer B-column nonzeros" true
    (zkvc.Attrib.nnz_b < vanilla.Attrib.nnz_b)

(* ------------------------------------------------------------------ *)
(* drift notes and profile --compare deltas                            *)

(* [t] with [f] applied to the node at [path] (root name first) *)
let rec edit path f (t : Attrib.t) =
  match path with
  | [ name ] when name = t.Attrib.name -> f t
  | name :: rest when name = t.Attrib.name ->
    { t with Attrib.children = List.map (edit rest f) t.Attrib.children }
  | _ -> t

let bump_nnz_a t = { t with Attrib.self = { t.Attrib.self with Attrib.nnz_a = 13 } }

(* one count changed, one region removed, one added: each gives exactly
   one note, and the note names the region's path *)
let test_drift_notes () =
  let base = golden_tree Mc.Crpc_psq (counts 4 3 12 32 30) in
  let in_matmul f =
    edit [ "all"; "matmul" ] (fun m -> { m with Attrib.children = f m.Attrib.children }) base
  in
  List.iter
    (fun (what, changed, note) ->
      Alcotest.(check (list string)) what [ note ] (Attrib.drift_notes ~old_:base ~new_:changed))
    [ ( "one count changed",
        edit [ "all"; "matmul"; "crpc+psq" ] bump_nnz_a base,
        "region all/matmul/crpc+psq: nnz_a 12 -> 13" );
      ( "region removed",
        in_matmul (List.filter (fun c -> c.Attrib.name <> "alloc")),
        "region all/matmul/alloc: removed (0 constraints)" );
      ( "region added",
        in_matmul (fun cs -> cs @ [ Attrib.make ~name:"bind" ~self:(counts 1 0 2 1 1) [] ]),
        "region all/matmul/bind: added (1 constraints)" ) ]

(* profile --compare reads trees written by [Attrib.to_json] back with
   [Attrib.of_json] and prints [Attrib.deltas]: a prepared tree (timing
   filled) against itself gives no rows, and a copy with one region
   changed gives exactly that region's delta. *)
let test_compare_deltas () =
  let through_text t =
    match Json.of_string (Json.to_string_pretty (Attrib.to_json t)) with
    | Error e -> Alcotest.failf "tree JSON unreadable: %s" e
    | Ok v -> (
      match Attrib.of_json v with Ok t -> t | Error e -> Alcotest.failf "tree JSON: %s" e)
  in
  let tree = through_text (prepare ~dims:(3, 4, 8) Mc.Crpc_psq).Api.regions in
  check_bool "self-compare gives no rows" true (Attrib.deltas ~old_:tree ~new_:tree = []);
  let changed = through_text (edit [ "all"; "matmul"; "crpc+psq" ] bump_nnz_a tree) in
  check_bool "one row: the changed region's delta" true
    (Attrib.deltas ~old_:tree ~new_:changed
    = [ ("all/matmul/crpc+psq", { Attrib.zero_counts with Attrib.nnz_a = 1 }) ])

(* ------------------------------------------------------------------ *)
(* compiler cross-check: closed-form counts vs attributed synthesis    *)

let test_compiler_cross_check () =
  let cfg = Nl.default_config in
  let arch = Models.shrink Models.vit_cifar10 ~factor:16 in
  let strategy = Mc.Crpc_psq in
  List.iter
    (fun variant ->
      let layers = Compiler.compile arch variant in
      let total = Compiler.total_counts ~strategy cfg layers in
      let b = Compiler.synthesize ~strategy cfg layers in
      let cs, assignment, tree = Compiler.Counter.B.finalize_attributed b in
      Cs.check_satisfied cs assignment;
      let name = Models.variant_name variant in
      check_int (name ^ ": constraints match the closed form") total.Ops.constraints
        (Cs.num_constraints cs);
      check_int (name ^ ": every constraint is region-attributed") total.Ops.constraints
        (Attrib.total tree).Attrib.constraints;
      check_bool (name ^ ": under 5% unattributed") true
        (Attrib.unattributed_pct tree < 5.);
      (* the closed form counts the constant-one wire once per op; a
         single shared builder allocates it once overall *)
      let nops = List.fold_left (fun acc l -> acc + List.length l.Compiler.ops) 0 layers in
      check_int (name ^ ": variables match the closed form")
        (total.Ops.variables - (nops - 1))
        (Cs.num_vars cs);
      (* one region per compiled layer, in layer order *)
      check_int (name ^ ": one region per layer") (List.length layers)
        (List.length tree.Attrib.children);
      List.iter2
        (fun (l : Compiler.layer_ops) (c : Attrib.t) ->
          check_bool (name ^ ": region named after its layer") true (l.Compiler.label = c.Attrib.name))
        layers tree.Attrib.children)
    [ Models.Soft_approx; Models.Soft_free_s; Models.Soft_free_p; Models.Zkvc_hybrid ]

let () =
  Alcotest.run "attrib"
    [ ( "tree",
        Alcotest.test_case "parse_folded rejects malformed input" `Quick
          test_parse_folded_rejects
        :: Alcotest.test_case "top_regions orders by self constraints" `Quick test_top_regions
        :: Alcotest.test_case "drift notes name the changed region" `Quick test_drift_notes
        :: Alcotest.test_case "compare deltas of JSON trees" `Quick test_compare_deltas
        :: List.map QCheck_alcotest.to_alcotest qcheck_tree );
      ( "builder",
        [ Alcotest.test_case "regions attribute every constraint" `Quick test_builder_regions;
          Alcotest.test_case "attribution survives the wire permutation" `Quick
            test_attribution_survives_permutation;
          Alcotest.test_case "re-entered regions accumulate" `Quick
            test_reentered_region_accumulates;
          Alcotest.test_case "attribution invariant under --jobs" `Quick test_jobs_invariance ] );
      ( "golden",
        [ Alcotest.test_case "Table II ledgers" `Quick test_golden_ledgers;
          Alcotest.test_case "Table II region trees" `Quick test_golden_region_trees ] );
      ( "compiler",
        [ Alcotest.test_case "closed-form counts = attributed synthesis" `Slow
            test_compiler_cross_check ] ) ]
