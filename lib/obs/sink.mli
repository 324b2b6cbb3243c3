(** Global recording switch for the observability layer. Spans and metrics
    are only captured while the sink is enabled; instrumentation sites
    check the flag with a single load so the disabled path stays free. *)

(** The raw flag. Exposed so hot loops can hoist the dereference; treat as
    read-only outside this library and flip it via [enable]/[disable]. *)
val enabled : bool ref

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool
