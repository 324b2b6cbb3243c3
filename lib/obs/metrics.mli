(** Named counters, gauges and histograms for prover internals (field
    multiplications, MSM sizes and window choices, NTT sizes, sumcheck and
    IPA round counts, R1CS shape).

    Instruments are interned by name: calling [counter name] twice returns
    the same instrument. All writes are guarded by the {!Sink} flag, so a
    disabled sink records nothing and costs one load + branch per write
    site.

    Domain-safety: counters use atomic increments so worker domains (see
    [Zkvc_parallel]) never lose updates; gauge and histogram writes are
    serialised by an internal mutex. Histograms retain at most
    {!reservoir_capacity} samples (deterministic reservoir sampling) while
    keeping [count] and [sum] exact, and cache the sorted view between
    observations so repeated {!percentile} queries cost O(1). *)

type counter = { c_name : string; value : int Atomic.t }
(** Exposed as a record so hot loops can hold the instrument and bump
    [value] directly (e.g. [Atomic.incr c.value]) after checking
    [Sink.enabled]. *)

type gauge

type histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit

(** Maximum samples a histogram retains; beyond it, reservoir sampling
    keeps an unbiased subset while [hist_count]/[hist_sum] stay exact. *)
val reservoir_capacity : int

val observe : histogram -> float -> unit
val observe_int : histogram -> int -> unit

(** Exact number of observations (not bounded by the reservoir). *)
val hist_count : histogram -> int

(** Exact sum of all observations. *)
val hist_sum : histogram -> float

(** Samples currently retained, at most {!reservoir_capacity}. *)
val hist_retained : histogram -> int

(** Nearest-rank percentile over the retained samples, [p] in [0,100];
    [None] when empty. [percentile h 0.] is the minimum, [100.] the max.
    Exact until {!reservoir_capacity} observations, a reservoir estimate
    after that. *)
val percentile : histogram -> float -> float option

(** Zero all registered instruments (registrations themselves persist). *)
val reset : unit -> unit

(** {2 Registry enumeration}

    For exposition renderers ({!Expose}): every registered instrument,
    name-sorted. Enumeration locks out concurrent interning; reading the
    returned instruments uses the ordinary accessors. *)

val all_counters : unit -> counter list

(** Gauges that have been [set] at least once, as [(name, value)]. *)
val all_gauges : unit -> (string * float) list

val all_histograms : unit -> histogram list

val hist_name : histogram -> string

(** JSON object [{counters; gauges; histograms}] of everything non-empty. *)
val snapshot : unit -> Json.t

(** Human-readable dump of everything non-empty (for [--metrics]). *)
val to_string : unit -> string
