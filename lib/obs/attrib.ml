(* Constraint provenance: a region tree attributing circuit cost
   (constraints, wires, per-matrix nonzeros, synthesis time, an
   apportioned prove-time share) to the nested regions the builder was
   inside when each constraint was emitted. The tree is produced by
   [Zkvc_r1cs.Builder] (this module deliberately knows nothing about
   R1CS — only about the counts) and consumed by the profiler CLI and
   the golden region tests. *)

type counts =
  { constraints : int;
    variables : int;
    nnz_a : int;
    nnz_b : int;
    nnz_c : int }

let zero_counts = { constraints = 0; variables = 0; nnz_a = 0; nnz_b = 0; nnz_c = 0 }

let add_counts x y =
  { constraints = x.constraints + y.constraints;
    variables = x.variables + y.variables;
    nnz_a = x.nnz_a + y.nnz_a;
    nnz_b = x.nnz_b + y.nnz_b;
    nnz_c = x.nnz_c + y.nnz_c }

type t =
  { name : string;
    self : counts;
    witness_s : float;
    prove_share_s : float;
    children : t list }

let make ?(witness_s = 0.) ?(prove_share_s = 0.) ~name ~self children =
  { name; self; witness_s; prove_share_s; children }

let rec total n = List.fold_left (fun acc c -> add_counts acc (total c)) n.self n.children

let rec total_witness_s n =
  List.fold_left (fun acc c -> acc +. total_witness_s c) n.witness_s n.children

let rec total_prove_s n =
  List.fold_left (fun acc c -> acc +. total_prove_s c) n.prove_share_s n.children

let rec map f n = f { n with children = List.map (map f) n.children }

let strip_timing n = map (fun n -> { n with witness_s = 0.; prove_share_s = 0. }) n

let nnz c = c.nnz_a + c.nnz_b + c.nnz_c

(* Apportion a measured prove time over the tree by each node's share of
   the total nonzero count — MSM/FFT work in both backends scales with
   the populated matrix entries, so nnz share is the honest structural
   proxy for "which region the prover spent its time on". *)
let with_prove_share ~prove_s root =
  let all = nnz (total root) in
  if all = 0 then root
  else
    map
      (fun n -> { n with prove_share_s = prove_s *. float_of_int (nnz n.self) /. float_of_int all })
      root

(* Fraction (0..100) of constraints emitted outside any [in_region]
   scope: the root's self count over the tree total. *)
let unattributed_pct root =
  let tot = (total root).constraints in
  if tot = 0 then 0. else 100. *. float_of_int root.self.constraints /. float_of_int tot

(* ------------------------------------------------------------------ *)
(* folded-stack export (Brendan Gregg collapsed format)                *)

let sanitize_seg s =
  String.map (fun c -> if c = ';' || c = ' ' || c = '\t' || c = '\n' || c = '\r' then '_' else c) s
  |> fun s -> if s = "" then "_" else s

(* Every node gets a line (weight = self constraints, zero included) so
   the parse is lossless; flamegraph.pl and speedscope both accept
   zero-weight frames. Preorder, creation order. *)
let folded_entries root =
  let rec go path n acc =
    let path = path @ [ sanitize_seg n.name ] in
    let acc = (path, n.self.constraints) :: acc in
    List.fold_left (fun acc c -> go path c acc) acc n.children
  in
  List.rev (go [] root [])

let to_folded root =
  let buf = Buffer.create 256 in
  List.iter
    (fun (path, w) -> Buffer.add_string buf (String.concat ";" path ^ " " ^ string_of_int w ^ "\n"))
    (folded_entries root);
  Buffer.contents buf

let parse_folded text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let parse_line l =
    match String.rindex_opt l ' ' with
    | None -> Error (Printf.sprintf "folded line without weight: %S" l)
    | Some i -> (
      let stack = String.sub l 0 i
      and w = String.sub l (i + 1) (String.length l - i - 1) in
      match int_of_string_opt w with
      | None -> Error (Printf.sprintf "folded line with non-integer weight: %S" l)
      | Some w when w < 0 -> Error (Printf.sprintf "negative weight: %S" l)
      | Some w -> Ok (String.split_on_char ';' stack, w))
  in
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | l :: rest -> ( match parse_line l with Ok e -> collect (e :: acc) rest | Error _ as e -> e)
  in
  collect [] lines

(* ------------------------------------------------------------------ *)
(* terminal table                                                      *)

let to_table root =
  let tot = total root in
  let rows = ref [] in
  let rec walk depth n =
    let t = total n in
    let pct =
      if tot.constraints = 0 then 0.
      else 100. *. float_of_int t.constraints /. float_of_int tot.constraints
    in
    rows :=
      ( String.make (2 * depth) ' ' ^ n.name,
        t.constraints,
        pct,
        t.variables,
        t.nnz_a,
        t.nnz_b,
        t.nnz_c,
        total_witness_s n,
        total_prove_s n )
      :: !rows;
    List.iter (walk (depth + 1)) n.children
  in
  walk 0 root;
  let rows = List.rev !rows in
  let name_w =
    List.fold_left (fun w (name, _, _, _, _, _, _, _, _) -> max w (String.length name)) 6 rows
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-*s %12s %6s %10s %10s %10s %10s %10s %10s\n" name_w "region" "constraints"
       "%" "vars" "nnz_a" "nnz_b" "nnz_c" "wit_ms" "prove_ms");
  List.iter
    (fun (name, cs, pct, vars, a, b, c, wit, prove) ->
      Buffer.add_string buf
        (Printf.sprintf "%-*s %12d %5.1f%% %10d %10d %10d %10d %10.2f %10.2f\n" name_w name cs pct
           vars a b c (1000. *. wit) (1000. *. prove)))
    rows;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON codec (exact round-trip)                                       *)

exception Bad of string

let field name v =
  match Json.member name v with Some x -> x | None -> raise (Bad ("missing field " ^ name))

let get_string name v =
  match field name v with Json.String s -> s | _ -> raise (Bad (name ^ ": expected string"))

let get_int name v =
  match field name v with Json.Int i -> i | _ -> raise (Bad (name ^ ": expected int"))

let get_float name v =
  match Json.to_number_opt (field name v) with
  | Some f -> f
  | None -> raise (Bad (name ^ ": expected number"))

let get_list name v =
  match Json.to_list_opt (field name v) with
  | Some l -> l
  | None -> raise (Bad (name ^ ": expected list"))

let rec to_json n =
  Json.Obj
    [ ("name", Json.String n.name);
      ("constraints", Json.Int n.self.constraints);
      ("variables", Json.Int n.self.variables);
      ("nnz_a", Json.Int n.self.nnz_a);
      ("nnz_b", Json.Int n.self.nnz_b);
      ("nnz_c", Json.Int n.self.nnz_c);
      ("witness_s", Json.Float n.witness_s);
      ("prove_share_s", Json.Float n.prove_share_s);
      ("children", Json.List (List.map to_json n.children)) ]

let rec node_of_json v =
  { name = get_string "name" v;
    self =
      { constraints = get_int "constraints" v;
        variables = get_int "variables" v;
        nnz_a = get_int "nnz_a" v;
        nnz_b = get_int "nnz_b" v;
        nnz_c = get_int "nnz_c" v };
    witness_s = get_float "witness_s" v;
    prove_share_s = get_float "prove_share_s" v;
    children = List.map node_of_json (get_list "children" v) }

let of_json v = match node_of_json v with n -> Ok n | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* region-level comparison (drift notes, profile --compare)            *)

(* Flatten to path -> self counts, paths slash-joined from the root's
   name; duplicate paths (impossible from the builder, which interns by
   (parent, name)) merge by sum. *)
let flatten root =
  let tbl = Hashtbl.create 64 in
  let rec go prefix n =
    let path = if prefix = "" then n.name else prefix ^ "/" ^ n.name in
    let prev = Option.value (Hashtbl.find_opt tbl path) ~default:zero_counts in
    Hashtbl.replace tbl path (add_counts prev n.self);
    List.iter (go path) n.children
  in
  go "" root;
  tbl

(* every path of either tree, sorted, with its self counts on each side *)
let paired ~old_ ~new_ =
  let o = flatten old_ and n = flatten new_ in
  let keys tbl = Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] in
  List.map
    (fun path -> (path, Hashtbl.find_opt o path, Hashtbl.find_opt n path))
    (List.sort_uniq compare (keys o @ keys n))

let drift_notes ~old_ ~new_ =
  let fields c =
    [ ("constraints", c.constraints);
      ("variables", c.variables);
      ("nnz_a", c.nnz_a);
      ("nnz_b", c.nnz_b);
      ("nnz_c", c.nnz_c) ]
  in
  List.concat_map
    (fun (path, o, n) ->
      match (o, n) with
      | Some oc, Some nc ->
        List.concat
          (List.map2
             (fun (f, ov) (_, nv) ->
               if ov <> nv then [ Printf.sprintf "region %s: %s %d -> %d" path f ov nv ]
               else [])
             (fields oc) (fields nc))
      | Some oc, None -> [ Printf.sprintf "region %s: removed (%d constraints)" path oc.constraints ]
      | None, Some nc -> [ Printf.sprintf "region %s: added (%d constraints)" path nc.constraints ]
      | None, None -> [])
    (paired ~old_ ~new_)

let deltas ~old_ ~new_ =
  let sub x y =
    { constraints = x.constraints - y.constraints;
      variables = x.variables - y.variables;
      nnz_a = x.nnz_a - y.nnz_a;
      nnz_b = x.nnz_b - y.nnz_b;
      nnz_c = x.nnz_c - y.nnz_c }
  in
  List.filter_map
    (fun (path, o, n) ->
      let get = Option.value ~default:zero_counts in
      let d = sub (get n) (get o) in
      if d = zero_counts then None else Some (path, d))
    (paired ~old_ ~new_)

let top_regions ?(n = 3) root =
  let rec leaves path node acc =
    let path = if path = "" then node.name else path ^ "/" ^ node.name in
    let acc = if node.self.constraints > 0 then (path, node.self.constraints) :: acc else acc in
    List.fold_left (fun acc c -> leaves path c acc) acc node.children
  in
  (* drop the synthetic root segment from reported paths for brevity *)
  let stripped =
    List.concat_map (fun c -> leaves "" c []) root.children
    @ (if root.self.constraints > 0 then [ (root.name, root.self.constraints) ] else [])
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) stripped in
  List.filteri (fun i _ -> i < n) sorted
