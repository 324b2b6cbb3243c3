(* Report-vs-report comparison with a noise-aware wall-time gate and a
   strict cost-ledger equality check. See diff.mli for the contract. *)

type verdict =
  | Ok_within_noise
  | Improved
  | Regressed
  | Ledger_drift
  | Only_old
  | Only_new

let verdict_name = function
  | Ok_within_noise -> "ok"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Ledger_drift -> "LEDGER-DRIFT"
  | Only_old -> "only-old"
  | Only_new -> "only-new"

let gating = function
  | Regressed | Ledger_drift -> true
  | Ok_within_noise | Improved | Only_old | Only_new -> false

type entry =
  { key : string;
    verdict : verdict;
    old_prove_s : float;
    new_prove_s : float;
    delta_s : float;
    band_s : float;
    notes : string list }

type result =
  { entries : entry list;
    regressions : int;
    drifts : int;
    ok : bool }

(* The GC fields are measurement noise (heap peaks depend on what ran
   before); everything else in the ledger is a deterministic function of
   the circuit and must match exactly. *)
let ledger_drift (o : Report.ledger) (n : Report.ledger) =
  let checks =
    [ ("constraints", o.Report.constraints, n.Report.constraints);
      ("variables", o.Report.variables, n.Report.variables);
      ("nonzero_a", o.Report.nonzero_a, n.Report.nonzero_a);
      ("nonzero_b", o.Report.nonzero_b, n.Report.nonzero_b);
      ("nonzero_c", o.Report.nonzero_c, n.Report.nonzero_c);
      ("witness", o.Report.witness, n.Report.witness) ]
  in
  List.filter_map
    (fun (name, ov, nv) ->
      if ov = nv then None else Some (Printf.sprintf "%s %d -> %d" name ov nv))
    checks

let compare_one ~threshold ~k ~floor_s ~check_time (o : Report.measurement)
    (n : Report.measurement) =
  let key = Report.key o in
  let delta = n.Report.prove_s -. o.Report.prove_s in
  let band =
    Float.max floor_s
      (Float.max (threshold *. o.Report.prove_s)
         (k *. Float.max o.Report.prove_mad_s n.Report.prove_mad_s))
  in
  (* Per-region structural counts are deterministic exactly like the
     global ledger, so they gate the same way — and a drift note names
     the owning region, localising the regression. Skipped when either
     side lacks a region tree (non-profiled runs). *)
  let region_drift =
    match (o.Report.regions, n.Report.regions) with
    | Some ot, Some nt ->
      Attrib.drift_notes ~old_:(Attrib.strip_timing ot) ~new_:(Attrib.strip_timing nt)
    | None, _ | _, None -> []
  in
  let drifted = ledger_drift o.Report.ledger n.Report.ledger @ region_drift in
  let verdict, notes =
    if drifted <> [] then (Ledger_drift, drifted)
    else if not check_time then (Ok_within_noise, [ "wall-time comparison skipped" ])
    else if delta > band then
      ( Regressed,
        [ Printf.sprintf "prove +%.1f%% exceeds band ±%.4fs"
            (100. *. delta /. Float.max 1e-9 o.Report.prove_s)
            band ] )
    else if delta < -.band then (Improved, [])
    else (Ok_within_noise, [])
  in
  { key;
    verdict;
    old_prove_s = o.Report.prove_s;
    new_prove_s = n.Report.prove_s;
    delta_s = delta;
    band_s = band;
    notes }

let compare_reports ?(threshold = 0.25) ?(k = 4.) ?(floor_s = 0.005) ?(check_time = true)
    ~(old_ : Report.t) ~(new_ : Report.t) () =
  let new_tbl = Hashtbl.create 32 in
  List.iter
    (fun m -> Hashtbl.replace new_tbl (Report.key m) m)
    new_.Report.measurements;
  let matched = Hashtbl.create 32 in
  let from_old =
    List.map
      (fun o ->
        let key = Report.key o in
        match Hashtbl.find_opt new_tbl key with
        | Some n ->
          Hashtbl.replace matched key ();
          compare_one ~threshold ~k ~floor_s ~check_time o n
        | None ->
          { key;
            verdict = Only_old;
            old_prove_s = o.Report.prove_s;
            new_prove_s = Float.nan;
            delta_s = Float.nan;
            band_s = 0.;
            notes = [] })
      old_.Report.measurements
  in
  let new_only =
    List.filter_map
      (fun n ->
        let key = Report.key n in
        if Hashtbl.mem matched key then None
        else
          Some
            { key;
              verdict = Only_new;
              old_prove_s = Float.nan;
              new_prove_s = n.Report.prove_s;
              delta_s = Float.nan;
              band_s = 0.;
              notes = [] })
      new_.Report.measurements
  in
  let entries = from_old @ new_only in
  let count v = List.length (List.filter (fun e -> e.verdict = v) entries) in
  let regressions = count Regressed and drifts = count Ledger_drift in
  { entries; regressions; drifts; ok = not (List.exists (fun e -> gating e.verdict) entries) }

let result_to_json r =
  Json.Obj
    [ ("schema", Json.String "zkvc-perf-diff/1");
      ("ok", Json.Bool r.ok);
      ("regressions", Json.Int r.regressions);
      ("ledger_drifts", Json.Int r.drifts);
      ( "entries",
        Json.List
          (List.map
             (fun e ->
               Json.Obj
                 [ ("key", Json.String e.key);
                   ("verdict", Json.String (verdict_name e.verdict));
                   ("old_prove_s", Json.Float e.old_prove_s);
                   ("new_prove_s", Json.Float e.new_prove_s);
                   ("delta_s", Json.Float e.delta_s);
                   ("band_s", Json.Float e.band_s);
                   ("notes", Json.List (List.map (fun s -> Json.String s) e.notes)) ])
             r.entries) ) ]

let result_to_string r =
  let b = Buffer.create 1024 in
  let width =
    List.fold_left (fun acc e -> Stdlib.max acc (String.length e.key)) 20 r.entries
  in
  Buffer.add_string b
    (Printf.sprintf "%-*s %10s %10s %9s %9s  %s\n" width "key" "old(s)" "new(s)" "delta"
       "band" "verdict");
  List.iter
    (fun e ->
      let num f = if Float.is_nan f then "-" else Printf.sprintf "%.4f" f in
      Buffer.add_string b
        (Printf.sprintf "%-*s %10s %10s %9s %9s  %s%s\n" width e.key (num e.old_prove_s)
           (num e.new_prove_s)
           (if Float.is_nan e.delta_s then "-"
            else Printf.sprintf "%+.1f%%" (100. *. e.delta_s /. Float.max 1e-9 e.old_prove_s))
           (num e.band_s) (verdict_name e.verdict)
           (match e.notes with [] -> "" | notes -> "  (" ^ String.concat "; " notes ^ ")")))
    r.entries;
  Buffer.add_string b
    (Printf.sprintf "%d key(s): %d regression(s), %d ledger drift(s) -> %s\n"
       (List.length r.entries) r.regressions r.drifts
       (if r.ok then "OK" else "FAIL"));
  Buffer.contents b
