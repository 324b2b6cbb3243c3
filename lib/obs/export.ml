(* Exporters for recorded spans: a human-readable tree, JSON-lines, and
   Chrome trace_event format (loadable in chrome://tracing or
   https://ui.perfetto.dev). *)

(* ------------------------------------------------------------------ *)
(* span tree                                                           *)

let rec tree_lines b indent s =
  let dur_ms = Span.duration_s s *. 1e3 in
  let alloc = Span.minor_words s +. Span.major_words s in
  Buffer.add_string b
    (Printf.sprintf "%s%-*s %10.3f ms  %12.0f words\n" indent
       (Stdlib.max 1 (40 - String.length indent))
       (Span.name s) dur_ms alloc);
  List.iter (tree_lines b (indent ^ "  ")) (Span.children s)

let tree_to_string spans =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-40s %13s  %12s\n" "span" "duration" "alloc");
  List.iter (tree_lines b "" ) spans;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* shared: flatten to (depth, path, span) pre-order                     *)

let rec flatten_with depth path s acc =
  let path = if path = "" then Span.name s else path ^ "/" ^ Span.name s in
  let acc = (depth, path, s) :: acc in
  List.fold_left (fun acc c -> flatten_with (depth + 1) path c acc) acc (Span.children s)

let flatten spans =
  List.rev (List.fold_left (fun acc s -> flatten_with 0 "" s acc) [] spans)

let time_origin spans =
  List.fold_left (fun acc s -> Stdlib.min acc (Span.start_s s)) Float.infinity spans

(* ------------------------------------------------------------------ *)
(* JSON-lines                                                          *)

let span_record ~origin depth path s =
  Json.Obj
    ([ ("name", Json.String (Span.name s));
       ("path", Json.String path);
       ("depth", Json.Int depth);
       ("tid", Json.Int (Span.domain_id s));
       ("start_us", Json.Float ((Span.start_s s -. origin) *. 1e6));
       ("dur_us", Json.Float (Span.duration_s s *. 1e6));
       ("minor_words", Json.Float (Span.minor_words s));
       ("major_words", Json.Float (Span.major_words s)) ]
    @
    match Span.args s with
    | [] -> []
    | args ->
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args)) ])

let to_jsonl spans =
  let origin = time_origin spans in
  let b = Buffer.create 1024 in
  List.iter
    (fun (depth, path, s) ->
      Buffer.add_string b (Json.to_string (span_record ~origin depth path s));
      Buffer.add_char b '\n')
    (flatten spans);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chrome trace_event format                                            *)

(* "X" (complete) events carry both ts and dur, so nesting is recovered
   by the viewer from interval containment per pid/tid track. The tid is
   the span's recording domain — spans from concurrent domains (and
   externally stitched server spans, see [Span.add_external]) get their
   own row instead of interleaving on one. Span attributes (request ids)
   travel in [args] next to the GC deltas. *)
let chrome_event ~origin s =
  Json.Obj
    [ ("name", Json.String (Span.name s));
      ("cat", Json.String "zkvc");
      ("ph", Json.String "X");
      ("ts", Json.Float ((Span.start_s s -. origin) *. 1e6));
      ("dur", Json.Float (Span.duration_s s *. 1e6));
      ("pid", Json.Int 1);
      ("tid", Json.Int (Span.domain_id s));
      ( "args",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.String v)) (Span.args s)
          @ [ ("minor_words", Json.Float (Span.minor_words s));
              ("major_words", Json.Float (Span.major_words s)) ]) ) ]

let to_chrome_trace spans =
  let origin = time_origin spans in
  let events =
    List.map (fun (_depth, _path, s) -> chrome_event ~origin s) (flatten spans)
  in
  Json.Obj
    [ ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj [ ("producer", Json.String "zkvc_obs") ]) ]
