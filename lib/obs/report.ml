(* Perf-trajectory report format: environment block + per-key
   measurements with per-rep timings, robust summaries and the cost
   ledger. The codec must round-trip exactly — tests enforce
   [of_json (to_json r) = Ok r] — so every field is written and read
   explicitly; unknown fields are rejected nowhere (forward-compatible
   readers skip them) but missing fields are an error.

   Schema zkvc-bench/3 carries an optional per-measurement "regions"
   provenance tree; reports of any other schema are refused. *)

let schema = "zkvc-bench/3"

type env =
  { git_rev : string;
    ocaml_version : string;
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
    ledger : ledger;
    regions : Attrib.t option (* provenance tree; None in v2 files *) }

type t =
  { env : env;
    sections : string list;
    measurements : measurement list }

let summarize ?regions ~section ~scheme ~strategy ~backend ~dims:(dims_a, dims_n, dims_b) ~reps
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
    ledger;
    regions }

let key m =
  Printf.sprintf "%s/%s/%s/%s/%dx%dx%d" m.section m.scheme m.strategy m.backend m.dims_a
    m.dims_n m.dims_b

(* ------------------------------------------------------------------ *)
(* encoding                                                            *)

let env_to_json e =
  Json.Obj
    [ ("git_rev", Json.String e.git_rev);
      ("ocaml_version", Json.String e.ocaml_version);
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
    ([ ("section", Json.String m.section);
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
    @ match m.regions with None -> [] | Some r -> [ ("regions", Attrib.to_json r) ])

let to_json t =
  Json.Obj
    [ ("schema", Json.String schema);
      ("env", env_to_json t.env);
      ("sections", Json.List (List.map (fun s -> Json.String s) t.sections));
      ("measurements", Json.List (List.map measurement_to_json t.measurements)) ]

(* ------------------------------------------------------------------ *)
(* decoding                                                            *)

exception Bad of string

let field name v =
  match Json.member name v with Some x -> x | None -> raise (Bad ("missing field " ^ name))

let get_string name v =
  match field name v with Json.String s -> s | _ -> raise (Bad (name ^ ": expected string"))

let get_int name v =
  match field name v with Json.Int i -> i | _ -> raise (Bad (name ^ ": expected int"))

let get_bool name v =
  match field name v with Json.Bool b -> b | _ -> raise (Bad (name ^ ": expected bool"))

let get_float name v =
  match Json.to_number_opt (field name v) with
  | Some f -> f
  | None -> raise (Bad (name ^ ": expected number"))

let get_list name v =
  match Json.to_list_opt (field name v) with
  | Some l -> l
  | None -> raise (Bad (name ^ ": expected list"))

let env_of_json v =
  { git_rev = get_string "git_rev" v;
    ocaml_version = get_string "ocaml_version" v;
    nproc = get_int "nproc" v;
    jobs = get_int "jobs" v;
    scale = get_int "scale" v;
    full = get_bool "full" v;
    clock = get_string "clock" v;
    date = get_string "date" v }

let ledger_of_json v =
  { constraints = get_int "constraints" v;
    variables = get_int "variables" v;
    nonzero_a = get_int "nonzero_a" v;
    nonzero_b = get_int "nonzero_b" v;
    nonzero_c = get_int "nonzero_c" v;
    witness = get_int "witness" v;
    top_heap_words = get_int "top_heap_words" v;
    major_collections = get_int "major_collections" v }

let rep_of_json v : rep =
  { setup_s = get_float "setup_s" v;
    prove_s = get_float "prove_s" v;
    verify_s = get_float "verify_s" v }

let measurement_of_json v =
  let dims = field "dims" v in
  { section = get_string "section" v;
    scheme = get_string "scheme" v;
    strategy = get_string "strategy" v;
    backend = get_string "backend" v;
    dims_a = get_int "a" dims;
    dims_n = get_int "n" dims;
    dims_b = get_int "b" dims;
    reps = List.map rep_of_json (get_list "reps" v);
    setup_s = get_float "setup_s" v;
    prove_s = get_float "prove_s" v;
    prove_mad_s = get_float "prove_mad_s" v;
    verify_s = get_float "verify_s" v;
    verify_mad_s = get_float "verify_mad_s" v;
    proof_bytes = get_int "proof_bytes" v;
    ledger = ledger_of_json (field "ledger" v);
    regions =
      (match Json.member "regions" v with
       | None -> None
       | Some r -> (
         match Attrib.of_json r with
         | Ok t -> Some t
         | Error msg -> raise (Bad ("regions: " ^ msg)))) }

let of_json v =
  match
    let s = get_string "schema" v in
    if s <> schema then
      raise (Bad (Printf.sprintf "unsupported schema %S (this reader understands %S)" s schema));
    { env = env_of_json (field "env" v);
      sections =
        List.map
          (function Json.String s -> s | _ -> raise (Bad "sections: expected strings"))
          (get_list "sections" v);
      measurements = List.map measurement_of_json (get_list "measurements" v) }
  with
  | t -> Ok t
  | exception Bad msg -> Error msg

let of_string text =
  match Json.of_string text with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok v -> of_json v
