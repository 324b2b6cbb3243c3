(* Compare two bench reports (Zkvc_obs.Report, schema zkvc-bench/3) and
   gate on regressions: the perf-trajectory differ behind tools/ci.sh.

   Usage: perf_diff.exe [options] OLD.json NEW.json
     --threshold R   relative prove-time tolerance (default 0.25)
     --k K           MAD multiplier of the noise band (default 4.0)
     --floor S       absolute band floor in seconds (default 0.005)
     --skip-time     skip the wall-time comparison, keep the cost-ledger
                     equality check (CI uses this when the runner's core
                     count differs from the baseline's environment block)
     --json FILE     also write the JSON verdict to FILE ("-" = stdout,
                     moving the human table to stderr)

   A measurement regresses only when its prove-time delta exceeds
   max(threshold * old, k * MAD, floor) — single-run noise cannot fail
   the gate, a 2x slowdown always does. Deterministic cost-ledger fields
   (constraints, variables, nonzeros, witness length) must be exactly
   equal regardless of --skip-time. When both measurements embed a
   constraint-provenance region tree (zkvc-bench/3, bench --profile or
   zkvc_cli profile --json), per-region structural counts are held to
   the same exact-equality bar and a drift note names the owning region;
   the comparison is skipped when either side lacks the tree (a
   non-profiled run).

   Exit status: 0 = within noise, 1 = regression or ledger drift,
   2 = usage or unreadable/invalid report. *)

module Diff = Zkvc_obs.Diff
module Report = Zkvc_obs.Report
module Json = Zkvc_obs.Json

let usage_error msg =
  Printf.eprintf "perf_diff: %s\n" msg;
  Printf.eprintf
    "usage: perf_diff.exe [--threshold R] [--k K] [--floor S] [--skip-time] [--json FILE] OLD.json NEW.json\n";
  exit 2

let read_report path =
  let text =
    try
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          really_input_string ic (in_channel_length ic))
    with Sys_error msg -> usage_error ("cannot read " ^ path ^ ": " ^ msg)
  in
  match Report.of_string text with
  | Ok r -> r
  | Error msg -> usage_error (path ^ ": " ^ msg)

let () =
  let threshold = ref 0.25 in
  let k = ref 4. in
  let floor_s = ref 0.005 in
  let check_time = ref true in
  let json_out : string option ref = ref None in
  let files = ref [] in
  let float_arg name v rest k' =
    match float_of_string_opt v with
    | Some f when f >= 0. -> k' f rest
    | _ -> usage_error (name ^ " expects a non-negative number, got " ^ v)
  in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest -> float_arg "--threshold" v rest (fun f r -> threshold := f; parse r)
    | "--k" :: v :: rest -> float_arg "--k" v rest (fun f r -> k := f; parse r)
    | "--floor" :: v :: rest -> float_arg "--floor" v rest (fun f r -> floor_s := f; parse r)
    | "--skip-time" :: rest ->
      check_time := false;
      parse rest
    | "--json" :: f :: rest ->
      json_out := Some f;
      parse rest
    | [ ("--threshold" | "--k" | "--floor" | "--json") as flag ] ->
      usage_error (flag ^ " expects an argument")
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      usage_error ("unknown option: " ^ arg)
    | file :: rest ->
      files := file :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let old_file, new_file =
    match List.rev !files with
    | [ a; b ] -> (a, b)
    | _ -> usage_error "expected exactly two report files (OLD.json NEW.json)"
  in
  let old_ = read_report old_file and new_ = read_report new_file in
  if old_.Report.env.Report.nproc <> new_.Report.env.Report.nproc && !check_time then
    Printf.eprintf
      "perf_diff: warning: baseline ran on nproc=%d, this run on nproc=%d; wall-time \
       comparison may be meaningless (consider --skip-time)\n"
      old_.Report.env.Report.nproc new_.Report.env.Report.nproc;
  let result =
    Diff.compare_reports ~threshold:!threshold ~k:!k ~floor_s:!floor_s
      ~check_time:!check_time ~old_ ~new_ ()
  in
  (* human table; moved to stderr when the JSON verdict owns stdout *)
  let table_chan = if !json_out = Some "-" then stderr else stdout in
  Printf.fprintf table_chan "comparing %s (old) vs %s (new)%s\n%s" old_file new_file
    (if !check_time then "" else "  [wall-time comparison skipped]")
    (Diff.result_to_string result);
  let verdict = Json.to_string_pretty (Diff.result_to_json result) in
  (match !json_out with
   | None -> ()
   | Some "-" -> print_string verdict
   | Some f -> (
     try
       let oc = open_out f in
       Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
           output_string oc verdict)
     with Sys_error msg -> usage_error ("cannot write " ^ f ^ ": " ^ msg)));
  exit (if result.Diff.ok then 0 else 1)
