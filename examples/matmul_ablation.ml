(* Walk through the paper's core insight at human scale: print the actual
   R1CS produced by each of the four matmul encodings on a 2×2·2×2 product
   and show how CRPC collapses the constraint count and PSQ removes the
   intermediate wires (Figures 4 and 5 of the paper, in code).

   Run with: dune exec examples/matmul_ablation.exe *)

module Fr = Zkvc_field.Fr
module Mc = Zkvc.Matmul_circuit
module Mcf = Mc.Make (Fr)
module Mspec = Zkvc.Matmul_spec
module Bld = Zkvc_r1cs.Builder.Make (Fr)
module Cs = Zkvc_r1cs.Constraint_system.Make (Fr)
module Lin = Zkvc_r1cs.Lc.Make (Fr)
module Spec = Mspec.Make (Fr)

(* all Span/Api timings read wall time; the Sys.time default is process
   CPU time, which the span docs warn against (it sums across domains) *)
let () = Zkvc_obs.Span.set_clock Unix.gettimeofday

let () =
  let d = Mspec.dims ~a:2 ~n:2 ~b:2 in
  let x = [| [| Fr.of_int 1; Fr.of_int 2 |]; [| Fr.of_int 3; Fr.of_int 4 |] |] in
  let w = [| [| Fr.of_int 5; Fr.of_int 6 |]; [| Fr.of_int 7; Fr.of_int 8 |] |] in
  let y = Spec.multiply x w in
  Printf.printf "X = [[1,2],[3,4]], W = [[5,6],[7,8]], Y = X*W = [[19,22],[43,50]]\n";
  List.iter
    (fun strategy ->
      let challenge =
        if Mc.uses_challenge strategy then Some (Fr.of_int 1000003) else None
      in
      let b = Bld.create () in
      ignore (Mcf.build b strategy ?challenge ~x ~w ~y d);
      let cs, assignment = Bld.finalize b in
      Cs.check_satisfied cs assignment;
      let s = Cs.stats cs in
      Printf.printf "\n--- %s ---\n" (Mc.strategy_name strategy);
      Printf.printf "constraints=%d variables=%d left-wires(nnz A)=%d\n" s.Cs.constraints
        s.Cs.variables s.Cs.nonzero_a;
      Array.iteri
        (fun i { Cs.a; b = bb; c; label } ->
          Format.printf "  #%d [%s]: (%a) * (%a) = %a\n" i label Lin.pp a Lin.pp bb
            Lin.pp c)
        cs.Cs.constraints)
    Mc.all_strategies;
  Printf.printf
    "\nCRPC: 2 constraints encode all 8 products (paper Fig. 4); PSQ drops the\n";
  Printf.printf "intermediate product wires by accumulating on the C side (Fig. 5).\n"
