(* The in-process workloads: one seeded statement, set up several times,
   then re-proved and re-verified in a closed loop on this process. The
   benchmark times each layer from outside, around the layer's public
   function; while tracing it also collects the spans and counters the
   library emits underneath. *)

module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec = Mspec.Make (Fr)
module Cs = Zkvc_r1cs.Constraint_system.Make (Fr)
module Lc = Zkvc_zkml.Layer_circuit.Make (Fr)
module Ops = Zkvc_zkml.Ops
module Groth16 = Zkvc_groth16.Groth16
module Spartan = Zkvc_spartan.Spartan
module Span = Zkvc_obs.Span
module Metrics = Zkvc_obs.Metrics
module Sink = Zkvc_obs.Sink

(* Test hooks that break one side on purpose, so the smoke test can
   show the correctness gate trips: [Bad_proof] corrupts every honest
   proof, [Accept_all] turns every verdict into "accepted". *)
type fault = No_fault | Bad_proof | Accept_all

type statement = { cs : Cs.t; assignment : Fr.t array; public_inputs : Fr.t list }

let public_inputs cs assignment = Array.to_list (Array.sub assignment 1 (Cs.num_inputs cs))

(* Time [f] and count the minor-heap words it allocates; while the sink
   records, [f] also runs inside a span [name] so library spans nest
   under it. *)
let call name f =
  let w0 = Gc.minor_words () in
  let t0 = Host.now () in
  let r = if Sink.is_enabled () then Span.with_span name f else f () in
  let dt = Host.now () -. t0 in
  (r, dt, (Gc.minor_words () -. w0) /. 1e6)

let backend_name = function Api.Backend_groth16 -> "groth16" | Api.Backend_spartan -> "spartan"

(* [Api.keygen], split so each backend call gets its own span:
   Groth16 is QAP then setup, Spartan preprocess then setup. *)
let setup backend rng cs =
  match backend with
  | Api.Backend_groth16 ->
    let qap, t_qap, w_qap = call "qap.create" (fun () -> Groth16.Qap.create cs) in
    let (pk, vk), t_setup, w_setup = call "groth16.setup" (fun () -> Groth16.setup rng qap) in
    Report.add "qap.create_s" t_qap;
    Report.add "groth16.setup_s" t_setup;
    Report.add "setup.minor_mwords" (w_qap +. w_setup);
    Api.Groth16_keys { qap; pk; vk }
  | Api.Backend_spartan ->
    let keys, t, w =
      call "spartan.setup" (fun () ->
          let inst = Spartan.preprocess cs in
          Api.Spartan_keys { inst; key = Spartan.setup inst })
    in
    Report.add "spartan.setup_s" t;
    Report.add "setup.minor_mwords" w;
    keys

(* Corrupt one component of the proof, chosen by [seed], through the
   backends' own mutation surface. *)
let tamper seed = function
  | Api.Groth16_proof p ->
    let sites = Groth16.Mutate.all in
    Api.Groth16_proof (Groth16.Mutate.apply (List.nth sites (seed mod List.length sites)) p)
  | Api.Spartan_proof p ->
    let sites = Spartan.Mutate.sites p in
    Api.Spartan_proof (Spartan.Mutate.apply (List.nth sites (seed mod List.length sites)) p)

(* ---- statements ---- *)

type counts = { constraints : int; nnz_a : int; nnz_b : int; nnz_c : int; inputs : int }

(* Report the statement's r1cs counts and check them against the values
   recorded for the workload. *)
let check_counts ~expect cs =
  let st = Cs.stats cs in
  let got =
    { constraints = st.Cs.constraints;
      nnz_a = st.Cs.nonzero_a;
      nnz_b = st.Cs.nonzero_b;
      nnz_c = st.Cs.nonzero_c;
      inputs = Cs.num_inputs cs }
  in
  let show c = Printf.sprintf "%d/%d/%d/%d/%d" c.constraints c.nnz_a c.nnz_b c.nnz_c c.inputs in
  Report.check
    (Printf.sprintf "r1cs counts %s equal the recorded %s" (show got) (show expect))
    (got = expect);
  List.iter
    (fun (name, v) -> Report.set name (float v))
    [ ("r1cs.constraints", got.constraints);
      ("r1cs.nnz_a", got.nnz_a);
      ("r1cs.nnz_b", got.nnz_b);
      ("r1cs.nnz_c", got.nnz_c);
      ("r1cs.public_inputs", got.inputs) ]

(* Seeded X and W, synthesised (with the CRPC challenge derived from
   X, W, Y) by [Api.prepare] on every call. *)
let matmul ~seed (d : Mspec.dims) =
  let rng = Random.State.make [| seed; 0x3a7 |] in
  let x = Spec.random_matrix rng ~rows:d.Mspec.a ~cols:d.Mspec.n ~bound:64 in
  let w = Spec.random_matrix rng ~rows:d.Mspec.n ~cols:d.Mspec.b ~bound:64 in
  fun () ->
    let p = Api.prepare Mc.Crpc_psq ~x ~w d in
    { cs = p.Api.cs;
      assignment = p.Api.assignment;
      public_inputs = public_inputs p.Api.cs p.Api.assignment }

(* The [Layer_circuit] gadgets of each op over seeded fixed-point inputs:
   the same circuit shape [Layer_circuit.build_op] builds, with the
   input values drawn from the seed. *)
let nonlinear ~seed ops =
  let cfg = Zkvc.Nonlinear.default_config in
  let rng = Random.State.make [| seed; 0x6e6c |] in
  let inputs k = Array.init k (fun _ -> Random.State.int rng 512 - 256) in
  let ops =
    List.map
      (fun op ->
        match op with
        | Ops.Op_softmax { rows; len } -> (op, inputs (rows * len))
        | Ops.Op_gelu n -> (op, inputs n)
        | Ops.Op_layernorm { rows; cols } -> (op, inputs (rows * cols))
        | _ -> invalid_arg "nonlinear: unsupported op")
      ops
  in
  fun () ->
    let b = Lc.B.create () in
    let alloc v = Lc.B.alloc b (Fr.of_int v) in
    let rows k v =
      List.init (Array.length v / k) (fun r -> List.init k (fun i -> alloc v.((r * k) + i)))
    in
    List.iter
      (fun (op, v) ->
        Lc.B.in_region b (Ops.name op) (fun () ->
            match op with
            | Ops.Op_softmax { len; _ } ->
              List.iter (fun xs -> ignore (Lc.softmax_row b cfg xs)) (rows len v)
            | Ops.Op_layernorm { cols; _ } ->
              List.iter (fun xs -> ignore (Lc.layernorm_row b cfg xs)) (rows cols v)
            | _ -> Array.iter (fun x -> ignore (Lc.gelu b cfg (alloc x))) v))
      ops;
    let cs, assignment = Lc.B.finalize b in
    { cs; assignment; public_inputs = public_inputs cs assignment }

type workload =
  { backend : Api.backend;
    prepare_span : string;  (** "core.prepare" or "zkml.build" *)
    prepare : unit -> statement;
    expect : counts;  (** the r1cs counts recorded for this statement shape *)
    setups : int }

(* ---- tracing ---- *)

let rec fold_spans f acc s = List.fold_left (fold_spans f) (f acc s) (Span.children s)

(* total duration and count of the spans named [name] recorded so far *)
let span_total name =
  List.fold_left
    (fold_spans (fun (t, k) s ->
         if Span.name s = name then (t +. Span.duration_s s, k + 1) else (t, k)))
    (0., 0) (Span.roots ())

(* library span -> metric, collected after each traced set-up or op *)
let library_phases =
  [ ("setup.qap_eval", "groth16.setup.qap_eval_s");
    ("setup.fixed_base_tables", "groth16.setup.fixed_base_tables_s");
    ("setup.pk_queries", "groth16.setup.pk_queries_s");
    ("setup.vk_ic", "groth16.setup.vk_ic_s");
    ("prove.h_coeffs", "groth16.prove.h_coeffs_s");
    ("prove.msm_a", "groth16.prove.msm_a_s");
    ("prove.msm_b_g2", "groth16.prove.msm_b_g2_s");
    ("prove.msm_b_g1", "groth16.prove.msm_b_g1_s");
    ("prove.msm_l", "groth16.prove.msm_l_s");
    ("prove.msm_h", "groth16.prove.msm_h_s");
    ("verify.ic_sum", "groth16.verify.ic_sum_s");
    ("verify.pairing", "groth16.verify.pairing_s");
    ("prove.commit_witness", "spartan.prove.commit_witness_s");
    ("prove.matrix_vector", "spartan.prove.matrix_vector_s");
    ("prove.sumcheck1", "spartan.prove.sumcheck1_s");
    ("prove.matrix_fold", "spartan.prove.matrix_fold_s");
    ("prove.sumcheck2", "spartan.prove.sumcheck2_s");
    ("prove.opening", "spartan.prove.opening_s");
    ("verify.matrix_eval", "spartan.verify.matrix_eval_s");
    ("verify.opening_msm", "spartan.verify.opening_msm_s") ]

let collect_phases () =
  List.iter
    (fun (span, metric) ->
      match span_total span with
      | _, 0 -> ()
      | t, _ -> Report.add metric t)
    library_phases

let counter name = float (Metrics.counter_value (Metrics.counter name))

let collect_counters backend =
  Report.add "field.mont_mul" (counter "field.mont_mul");
  Report.add "curve.msm_calls" (counter "msm.calls");
  Report.add "curve.msm_points" (Metrics.hist_sum (Metrics.histogram "msm.size"));
  Report.add "poly.ntt_calls" (counter "poly.ntt.calls");
  if backend = Api.Backend_spartan then
    Report.add "spartan.sumcheck_rounds" (counter "sumcheck.rounds")

let reset_trace () =
  Span.reset ();
  Metrics.reset ()

(* ---- the run ---- *)

let run ~seed ~seconds ~trace ~smoke ~fault (w : workload) =
  let bname = backend_name w.backend in
  let rng = Random.State.make [| seed; 0x5e7 |] in
  let verdict ok = ok || fault = Accept_all in
  (* set-up: synthesis plus keygen, several times; the last keys serve *)
  if trace then Sink.enable ();
  let setup_once () =
    reset_trace ();
    let t0 = Host.now () in
    let s, _, _ = call w.prepare_span w.prepare in
    let keys = setup w.backend rng s.cs in
    let dt = Host.now () -. t0 in
    collect_phases ();
    (s, keys, dt)
  in
  (* only the last set-up's statement and keys stay alive, so the number
     of set-ups does not move peak_rss_mb *)
  let rec setups k times =
    let s, keys, dt = setup_once () in
    if k <= 1 then (s, keys, dt :: times) else setups (k - 1) (dt :: times)
  in
  let stmt, keys, setup_times = setups w.setups [] in
  Sink.disable ();
  Report.set_median "setup_s" setup_times;
  check_counts ~expect:w.expect stmt.cs;
  (* the NTT probe runs at the QAP domain size, or for Spartan, which has
     none, at the constraint count rounded up to a power of two *)
  let ntt_size =
    match keys with
    | Api.Groth16_keys k ->
      let n = Groth16.Qap.domain_size k.qap in
      Report.set "qap.domain_size" (float n);
      n
    | Api.Spartan_keys _ -> Cs.num_constraints stmt.cs
  in
  (* one statement -> proof -> verdict *)
  let op ~traced =
    if traced then begin
      reset_trace ();
      Sink.enable ()
    end;
    let s, t_prep, w_prep = call w.prepare_span w.prepare in
    let p, t_prove, w_prove =
      call (bname ^ ".prove") (fun () -> Api.prove_with ~rng keys s.assignment)
    in
    let p = if fault = Bad_proof then tamper seed p else p in
    let ok, t_verify, w_verify =
      call (bname ^ ".verify") (fun () -> Api.verify_with keys ~public_inputs:s.public_inputs p)
    in
    Sink.disable ();
    Report.check "honest proof verifies" (verdict ok);
    if traced then begin
      Report.add (w.prepare_span ^ "_s") t_prep;
      Report.add (bname ^ ".prove_s") t_prove;
      Report.add (bname ^ ".verify_s") t_verify;
      collect_phases ();
      collect_counters w.backend
    end
    else begin
      Report.add "prepare.minor_mwords" w_prep;
      Report.add "prove.minor_mwords" w_prove;
      Report.add "verify.minor_mwords" w_verify
    end;
    (p, t_prep +. t_prove, t_verify)
  in
  (* drop the set-ups' garbage, so every run's loop starts from the same
     heap state *)
  Gc.compact ();
  (* untimed warm-up, whose proof then feeds the tamper check *)
  let warm, _, _ = op ~traced:false in
  let forged = tamper seed warm in
  Report.check "tampered proof rejected"
    (not (verdict (Api.verify_with keys ~public_inputs:stmt.public_inputs forged)));
  (* closed loop: start another op while the expected finish stays
     within the budget; [traced i] says whether op [i] records a trace.
     Returns (traced, prove seconds, verify seconds) per op. *)
  let loop ~traced budget =
    let t_start = Host.now () in
    let min_ops = if traced 1 then 2 else 1 in
    let rec go i ops =
      let est = Host.median (List.map (fun (_, tp, tv) -> tp +. tv) ops) in
      let elapsed = Host.now () -. t_start in
      if i >= min_ops && (smoke || elapsed +. (est /. 2.) > budget) then (ops, elapsed)
      else
        let _, tp, tv = op ~traced:(traced i) in
        go (i + 1) ((traced i, tp, tv) :: ops)
    in
    go 0 []
  in
  if not trace then begin
    let ops, elapsed = loop ~traced:(fun _ -> false) seconds in
    Report.set_trimmed_mean "prove_s" (List.map (fun (_, tp, _) -> tp) ops);
    Report.set_trimmed_mean "verify_s" (List.map (fun (_, _, tv) -> tv) ops);
    Report.set ~n:(List.length ops) "throughput_per_s" (float (List.length ops) /. elapsed);
    Report.set "proof_bytes" (float (Api.proof_size warm));
    Report.set "peak_rss_mb" (Host.peak_rss_mb 0)
  end
  else begin
    (* traced and untraced ops alternate, so both see the same host *)
    let ops, _ = loop ~traced:(fun i -> i mod 2 = 1) seconds in
    let total t =
      Host.median (List.filter_map (fun (t', tp, tv) -> if t' = t then Some (tp +. tv) else None) ops)
    in
    Report.set ~n:(List.length ops) "trace.overhead_pct" (((total true /. total false) -. 1.) *. 100.);
    Probes.run ~seed ~witness:(Cs.num_aux stmt.cs) ~ntt_size
  end
