(** Exporters for recorded spans.

    - {!tree_to_string}: indented human-readable tree with per-span
      duration and allocation;
    - {!to_jsonl}: one JSON object per span, pre-order, with [path],
      [depth], [tid] and (when set) [args] fields;
    - {!to_chrome_trace}: Chrome [trace_event] JSON ("X" complete events,
      microsecond timestamps) loadable in chrome://tracing or Perfetto.
      Each event's [tid] is the span's recording domain ({!Span.domain_id}),
      so concurrent-domain and stitched remote spans keep their own rows,
      and span attributes (e.g. request ids) are emitted in [args]. *)

val tree_to_string : Span.t list -> string

val to_jsonl : Span.t list -> string

val to_chrome_trace : Span.t list -> Json.t

(** [write_chrome_trace path spans] = compact {!to_chrome_trace} to a file. *)
val write_chrome_trace : string -> Span.t list -> unit
