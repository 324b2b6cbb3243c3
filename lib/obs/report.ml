(* Bench report writer: environment block + per-cell measurements with
   per-rep timings, robust summaries and the cost ledger. Every field is
   always written, so line-oriented readers (tools/ci.sh's awk) can rely
   on them. *)

let schema = "zkvc-bench/4"

type env =
  { ocaml_version : string;
    nproc : int;
    jobs : int;
    scale : int;
    full : bool;
    clock : string;
    date : string }

type ledger =
  { constraints : int;
    variables : int;
    nonzero_a : int;
    nonzero_b : int;
    nonzero_c : int;
    witness : int;
    top_heap_words : int;
    major_collections : int }

type rep =
  { setup_s : float;
    prove_s : float;
    verify_s : float }

type measurement =
  { section : string;
    scheme : string;
    strategy : string;
    backend : string;
    dims_a : int;
    dims_n : int;
    dims_b : int;
    reps : rep list;
    setup_s : float;
    prove_s : float;
    prove_mad_s : float;
    verify_s : float;
    verify_mad_s : float;
    proof_bytes : int;
    ledger : ledger }

type t =
  { env : env;
    sections : string list;
    measurements : measurement list }

let summarize ~section ~scheme ~strategy ~backend ~dims:(dims_a, dims_n, dims_b) ~reps
    ~proof_bytes ~ledger () =
  if reps = [] then invalid_arg "Report.summarize: empty rep list";
  let arr (f : rep -> float) = Array.of_list (List.map f reps) in
  let setups = arr (fun r -> r.setup_s)
  and proves = arr (fun r -> r.prove_s)
  and verifies = arr (fun r -> r.verify_s) in
  { section;
    scheme;
    strategy;
    backend;
    dims_a;
    dims_n;
    dims_b;
    reps;
    setup_s = Stats.median setups;
    prove_s = Stats.median proves;
    prove_mad_s = Stats.mad proves;
    verify_s = Stats.median verifies;
    verify_mad_s = Stats.mad verifies;
    proof_bytes;
    ledger }

(* ------------------------------------------------------------------ *)
(* encoding                                                            *)

let env_to_json e =
  Json.Obj
    [ ("ocaml_version", Json.String e.ocaml_version);
      ("nproc", Json.Int e.nproc);
      ("jobs", Json.Int e.jobs);
      ("scale", Json.Int e.scale);
      ("full", Json.Bool e.full);
      ("clock", Json.String e.clock);
      ("date", Json.String e.date) ]

let ledger_to_json l =
  Json.Obj
    [ ("constraints", Json.Int l.constraints);
      ("variables", Json.Int l.variables);
      ("nonzero_a", Json.Int l.nonzero_a);
      ("nonzero_b", Json.Int l.nonzero_b);
      ("nonzero_c", Json.Int l.nonzero_c);
      ("witness", Json.Int l.witness);
      ("top_heap_words", Json.Int l.top_heap_words);
      ("major_collections", Json.Int l.major_collections) ]

let rep_to_json (r : rep) =
  Json.Obj
    [ ("setup_s", Json.Float r.setup_s);
      ("prove_s", Json.Float r.prove_s);
      ("verify_s", Json.Float r.verify_s) ]

let measurement_to_json m =
  Json.Obj
    [ ("section", Json.String m.section);
      ("scheme", Json.String m.scheme);
      ("strategy", Json.String m.strategy);
      ("backend", Json.String m.backend);
      ( "dims",
        Json.Obj [ ("a", Json.Int m.dims_a); ("n", Json.Int m.dims_n); ("b", Json.Int m.dims_b) ]
      );
      ("reps", Json.List (List.map rep_to_json m.reps));
      ("setup_s", Json.Float m.setup_s);
      ("prove_s", Json.Float m.prove_s);
      ("prove_mad_s", Json.Float m.prove_mad_s);
      ("verify_s", Json.Float m.verify_s);
      ("verify_mad_s", Json.Float m.verify_mad_s);
      ("proof_bytes", Json.Int m.proof_bytes);
      ("ledger", ledger_to_json m.ledger) ]

let to_json t =
  Json.Obj
    [ ("schema", Json.String schema);
      ("env", env_to_json t.env);
      ("sections", Json.List (List.map (fun s -> Json.String s) t.sections));
      ("measurements", Json.List (List.map measurement_to_json t.measurements)) ]
