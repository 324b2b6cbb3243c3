(* The serve-mixed workload: a `zkvc_cli serve --workers 1 --jobs 1`
   child process driven over its Unix socket by two closed-loop
   connections of this process. Connection P sends seeded Spartan
   CRPC+PSQ Prove requests: three in four reuse one of a few fixed
   statements (key-cache hits), one in four is a fresh statement (a miss
   plus keygen, with evictions once the cache is full). Connection V
   verifies proofs of the reused statements only, so their keys stay
   cached. *)

module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Mc = Zkvc.Matmul_circuit
module Mspec = Zkvc.Matmul_spec
module Spec = Mspec.Make (Fr)
module Wire = Zkvc_serve.Wire
module Client = Zkvc_serve.Client
module Expose = Zkvc_obs.Expose

type config =
  { cli : string;  (** the zkvc_cli executable *)
    dims : Mspec.dims;
    reused : int;  (** fixed statements that P cycles through *)
    setups : int;
    expect : Inproc.counts }

let bound = 64

(* statement seeds: the reused ones, then a fresh one per miss *)
let reused_seed ~seed k = (seed * 1000) + k
let fresh_seed ~seed j = (seed * 1000) + 100 + j

(* ---- the server process ---- *)

let tmp_dir = ".perfbench_tmp"

type server = { pid : int; sock : string; log : string; mutable running : bool }

let live : server list ref = ref []

let kill s =
  if s.running then begin
    s.running <- false;
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] s.pid)
  end

(* never leave a server behind, whatever way this process exits *)
let () = at_exit (fun () -> List.iter kill !live)

let started = ref 0

let start_server cfg ~traced =
  (try Unix.mkdir tmp_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  incr started;
  let base = Printf.sprintf "%s/%d-%d" tmp_dir (Unix.getpid ()) !started in
  let sock = base ^ ".sock" and log = base ^ ".log" in
  let args =
    [ cfg.cli; "serve"; "--socket"; sock; "--workers"; "1"; "--jobs"; "1"; "--queue"; "64";
      "--cache"; string_of_int (cfg.reused + 2) ]
    @ if traced then [ "--metrics" ] else []
  in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process cfg.cli (Array.of_list args) Unix.stdin fd fd in
  Unix.close fd;
  let s = { pid; sock; log; running = true } in
  live := s :: !live;
  s

let server_failed s what =
  Printf.eprintf "perfbench: serve: %s (server log %s)\n%!" what s.log;
  (try
     let ic = open_in s.log in
     (try
        while true do
          prerr_endline ("  | " ^ input_line ic)
        done
      with End_of_file -> ());
     close_in ic
   with Sys_error _ -> ());
  failwith ("serve: " ^ what)

(* connect as soon as the server listens *)
let connect s =
  let deadline = Host.now () +. 60. in
  let rec go () =
    match Client.connect s.sock with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
       | 0, _ -> ()
       | _ ->
         s.running <- false;
         server_failed s "exited before listening");
      if Host.now () > deadline then server_failed s "did not listen within 60 s";
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let stop s =
  (match Client.with_connection s.sock (fun c -> Client.request c Wire.Shutdown) with
   | Ok Wire.Shutdown_ok -> ()
   | _ | (exception _) -> Report.check "server shuts down cleanly" false);
  let deadline = Host.now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when Host.now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Report.check "server exits after shutdown" false;
      kill s
    | _ -> s.running <- false
  in
  wait ();
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ s.sock; s.log ]

(* ---- requests ---- *)

let prove_req cfg seed =
  Wire.Prove
    { backend = Api.Backend_spartan;
      strategy = Mc.Crpc_psq;
      dims = cfg.dims;
      input = Wire.Seeded { seed; bound };
      deadline_ms = 0 }

(* a served proof with what V needs to verify it *)
type served = { stmt : int; key_id : string; public_inputs : Fr.t list; proof : Api.proof }

let verify_req (p : served) =
  Wire.Verify
    { key_id = p.key_id; public_inputs = p.public_inputs; proof = p.proof; deadline_ms = 0 }

(* One round trip: (response, seconds, server timing). *)
let send c req =
  let t0 = Host.now () in
  let r = Client.request c req in
  (r, Host.now () -. t0, Client.last_timing c)

let describe = function
  | Ok (Wire.Error { code; message }) ->
    Printf.sprintf "server error %s: %s" (Wire.error_code_to_string code) message
  | Ok _ -> "unexpected response"
  | Error e -> "transport: " ^ Wire.error_to_string e

let prove c cfg seed =
  match send c (prove_req cfg seed) with
  | Ok (Wire.Prove_ok r), rtt, timing ->
    let p = { stmt = seed; key_id = r.key_id; public_inputs = r.public_inputs; proof = r.proof } in
    Some (p, rtt, timing)
  | r, _, _ ->
    Printf.eprintf "perfbench: prove of statement %d: %s\n%!" seed (describe r);
    None

(* ---- per-request records ---- *)

type record = { kind : [ `Prove | `Verify ]; rtt : float; timing : Wire.timing option }

let records : record list ref = ref []
let lock = Mutex.create ()
let record r = Mutex.protect lock (fun () -> records := r :: !records)

(* server-side counters, from the metrics exposition of a traced server *)
let server_counters c =
  match Client.request c Wire.Status_detail with
  | Ok (Wire.Status_detail_ok d) -> (
    match Expose.parse d.metrics_text with
    | Ok samples -> List.map (fun (s : Expose.sample) -> (s.metric, s.value)) samples
    | Error _ -> [])
  | _ -> []

let status c =
  match Client.request c Wire.Status with
  | Ok (Wire.Status_ok s) -> s
  | r -> failwith ("serve: status: " ^ describe r)

(* ---- the measured phase ---- *)

type phase = { elapsed : float; completed : int; fresh : served list }

(* P and V run concurrently in closed loops until [budget] seconds have
   passed (one request each in smoke mode). *)
let measure cfg ~seed ~fault ~smoke ~budget s pool =
  let verdict ok = ok || fault = Inproc.Accept_all in
  let pending = Queue.create () in
  let fresh = ref [] in
  let completed = Atomic.make 0 in
  let t_start = Host.now () in
  let more i = if smoke then i < 1 else Host.now () -. t_start < budget in
  let p_loop () =
    Client.with_connection s.sock (fun c ->
        let rec go i j k =
          if more i then
            let is_fresh = i mod 4 = 3 in
            let stmt =
              if is_fresh then fresh_seed ~seed j else reused_seed ~seed (k mod cfg.reused)
            in
            let r = prove c cfg stmt in
            Report.check "prove request served" (r <> None);
            Option.iter
              (fun (p, rtt, timing) ->
                Atomic.incr completed;
                record { kind = `Prove; rtt; timing };
                Mutex.protect lock (fun () ->
                    if is_fresh then fresh := p :: !fresh else Queue.push p pending))
              r;
            if is_fresh then go (i + 1) (j + 1) k else go (i + 1) j (k + 1)
        in
        go 0 0 0)
  in
  let v_loop () =
    Client.with_connection s.sock (fun c ->
        let rec go i =
          if more i then begin
            let p =
              match Mutex.protect lock (fun () -> Queue.take_opt pending) with
              | Some p -> p
              | None -> pool.(i mod Array.length pool)
            in
            let p =
              if fault = Inproc.Bad_proof then { p with proof = Inproc.tamper seed p.proof } else p
            in
            (match send c (verify_req p) with
             | Ok (Wire.Verify_ok ok), rtt, timing ->
               Atomic.incr completed;
               record { kind = `Verify; rtt; timing };
               Report.check "served proof verifies" (verdict ok)
             | r, _, _ ->
               Printf.eprintf "perfbench: verify: %s\n%!" (describe r);
               Report.check "verify request served" false);
            go (i + 1)
          end
        in
        go 0)
  in
  let v = Thread.create v_loop () in
  p_loop ();
  Thread.join v;
  let elapsed = Host.now () -. t_start in
  (* proofs V did not reach are verified now, untimed *)
  Client.with_connection s.sock (fun c ->
      Queue.iter
        (fun p ->
          match Client.request c (verify_req p) with
          | Ok (Wire.Verify_ok ok) -> Report.check "served proof verifies" (verdict ok)
          | r ->
            Printf.eprintf "perfbench: verify: %s\n%!" (describe r);
            Report.check "verify request served" false)
        pending);
  { elapsed; completed = Atomic.get completed; fresh = !fresh }

(* Fresh statements' keys are evicted by now, so their proofs are
   checked here against keys generated from the same seeded statement. *)
let verify_locally cfg ~fault (p : served) =
  let rng = Random.State.make [| p.stmt |] in
  let d = cfg.dims in
  let x = Spec.random_matrix rng ~rows:d.Mspec.a ~cols:d.Mspec.n ~bound in
  let w = Spec.random_matrix rng ~rows:d.Mspec.n ~cols:d.Mspec.b ~bound in
  let prep = Api.prepare Mc.Crpc_psq ~x ~w d in
  let keys = Api.keygen Api.Backend_spartan prep.Api.cs in
  let public_inputs = Inproc.public_inputs prep.Api.cs prep.Api.assignment in
  let ok = Api.verify_with keys ~public_inputs p.proof in
  Report.check "served fresh proof verifies" (ok || fault = Inproc.Accept_all)

(* ---- metrics from the records ---- *)

let phase_metric = function
  | "serve.prepare" -> Some "core.prepare_s"
  | "serve.keygen" -> Some "spartan.setup_s"
  | "serve.prove" -> Some "spartan.prove_s"
  | "serve.request.verify" -> Some "spartan.verify_s"
  | name -> List.assoc_opt name Inproc.library_phases

let layer_metrics recs =
  let of_kind k = List.filter (fun r -> r.kind = k) recs in
  let timed f rs = List.filter_map (fun r -> Option.map f r.timing) rs in
  let wait (t : Wire.timing) = t.Wire.tm_queue_wait_s in
  let exec (t : Wire.timing) = t.Wire.tm_exec_s in
  let proves = of_kind `Prove and verifies = of_kind `Verify in
  Report.set_median "serve.queue_wait_s.prove" (timed wait proves);
  Report.set_median "serve.queue_wait_s.verify" (timed wait verifies);
  Report.set_median "serve.exec_s.prove" (timed exec proves);
  Report.set_median "serve.exec_s.verify" (timed exec verifies);
  Report.set_median "serve.overhead_s"
    (List.filter_map
       (fun r -> Option.map (fun t -> r.rtt -. wait t -. exec t) r.timing)
       recs);
  let rtts rs = List.map (fun r -> r.rtt) rs in
  Report.set ~n:(List.length proves) "serve.prove_p90_s" (Host.percentile 90. (rtts proves));
  Report.set ~n:(List.length verifies) "serve.verify_p90_s" (Host.percentile 90. (rtts verifies));
  List.iter
    (fun r ->
      match r.timing with
      | Some t ->
        List.iter
          (fun (name, _, dur) ->
            match phase_metric name with Some m -> Report.add m dur | None -> ())
          t.Wire.tm_phases
      | None -> ())
    recs

(* per completed request, from a traced server's counters *)
let counter_metrics ~before ~after ~requests =
  let delta name =
    let get l = Option.value (List.assoc_opt name l) ~default:0. in
    (get after -. get before) /. float (max 1 requests)
  in
  Report.set "field.mont_mul" (delta "zkvc_field_mont_mul_total");
  Report.set "curve.msm_calls" (delta "zkvc_msm_calls_total");
  Report.set "curve.msm_points" (delta "zkvc_msm_size_sum");
  Report.set "poly.ntt_calls" (delta "zkvc_poly_ntt_calls_total");
  Report.set "spartan.sumcheck_rounds" (delta "zkvc_sumcheck_rounds_total")

(* ---- the run ---- *)

(* Start a server, prove every reused statement once (the first is a
   cache miss on an empty cache), and return V's proof pool. *)
let warm cfg ~seed s =
  Client.with_connection s.sock (fun c ->
      Array.init cfg.reused (fun k ->
          match prove c cfg (reused_seed ~seed k) with
          | Some (p, _, _) -> p
          | None -> failwith "serve: warm-up prove failed"))

let run cfg ~seed ~seconds ~trace ~smoke ~fault =
  let verdict ok = ok || fault = Inproc.Accept_all in
  (* set-up: server start until the first Prove reply, a cache miss *)
  let setup_once () =
    let t0 = Host.now () in
    let s = start_server cfg ~traced:false in
    let c = connect s in
    let first = prove c cfg (reused_seed ~seed 0) in
    Client.close c;
    let dt = Host.now () -. t0 in
    Report.check "first prove served" (first <> None);
    (s, dt)
  in
  let rec setups k acc =
    let s, dt = setup_once () in
    if k <= 1 then (s, dt :: acc)
    else begin
      stop s;
      setups (k - 1) (dt :: acc)
    end
  in
  let s, setup_times = setups cfg.setups [] in
  Report.set_median "setup_s" setup_times;
  (* recorded shape of the served statement *)
  let stmt = Inproc.matmul ~seed cfg.dims () in
  Inproc.check_counts ~expect:cfg.expect stmt.Inproc.cs;
  let pool = warm cfg ~seed s in
  (* tamper gate: one corrupted proof must be rejected *)
  Client.with_connection s.sock (fun c ->
      let p = pool.(0) in
      match Client.request c (verify_req { p with proof = Inproc.tamper seed p.proof }) with
      | Ok (Wire.Verify_ok ok) -> Report.check "tampered proof rejected" (not (verdict ok))
      | r ->
        Printf.eprintf "perfbench: tamper verify: %s\n%!" (describe r);
        Report.check "tampered proof rejected" false);
  let finish s ph =
    List.iter (verify_locally cfg ~fault) ph.fresh;
    let rss = Host.peak_rss_mb s.pid in
    stop s;
    rss
  in
  if not trace then begin
    let ph = measure cfg ~seed ~fault ~smoke ~budget:seconds s pool in
    let recs = !records in
    let rtts k = List.filter_map (fun r -> if r.kind = k then Some r.rtt else None) recs in
    Report.set_trimmed_mean "prove_s" (rtts `Prove);
    Report.set_trimmed_mean "verify_s" (rtts `Verify);
    Report.set ~n:ph.completed "throughput_per_s" (float ph.completed /. ph.elapsed);
    Report.set "proof_bytes" (float (Api.proof_size pool.(0).proof));
    Report.set "peak_rss_mb" (finish s ph)
  end
  else begin
    (* first half on the untraced server, second half on a traced one *)
    let plain = measure cfg ~seed ~fault ~smoke ~budget:(seconds /. 2.) s pool in
    let plain_recs = !records in
    ignore (finish s plain);
    records := [];
    let s = start_server cfg ~traced:true in
    Client.close (connect s);
    let pool = warm cfg ~seed s in
    let before = Client.with_connection s.sock server_counters in
    let st0 = Client.with_connection s.sock status in
    let ph = measure cfg ~seed ~fault ~smoke ~budget:(seconds /. 2.) s pool in
    let st1 = Client.with_connection s.sock status in
    let after = Client.with_connection s.sock server_counters in
    let recs = !records in
    let med rs = Host.median (List.map (fun r -> r.rtt) rs) in
    Report.set ~n:(List.length recs + List.length plain_recs) "trace.overhead_pct"
      (((med recs /. med plain_recs) -. 1.) *. 100.);
    layer_metrics recs;
    counter_metrics ~before ~after ~requests:ph.completed;
    let hits = st1.Wire.cache_hits - st0.Wire.cache_hits
    and misses = st1.Wire.cache_misses - st0.Wire.cache_misses in
    Report.set ~n:(hits + misses) "serve.cache_hit_ratio"
      (float hits /. float (max 1 (hits + misses)));
    Report.set "serve.rejected" (float (st1.Wire.rejections - st0.Wire.rejections));
    Report.set "serve.timeouts" (float (st1.Wire.timeouts - st0.Wire.timeouts));
    ignore (finish s ph);
    let cs = stmt.Inproc.cs in
    Probes.run ~seed ~witness:(Inproc.Cs.num_aux cs) ~ntt_size:(Inproc.Cs.num_constraints cs)
  end
