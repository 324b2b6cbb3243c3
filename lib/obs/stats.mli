(** Robust statistics for repeated timing measurements: the bench
    harness's per-measurement summaries in {!Report}.

    Medians and the median absolute deviation are used instead of
    mean/stddev because bench samples are few (3–10 reps) and heavy-tailed
    (GC pauses, scheduler preemption): one outlier rep must not move the
    reported centre or explode the spread. All functions copy their
    input before sorting and raise [Invalid_argument] on an empty array. *)

val minimum : float array -> float
val maximum : float array -> float

(** Median by sorting; the mean of the two middle elements when the
    sample count is even. *)
val median : float array -> float

(** Median absolute deviation around the median: [median |x_i − median|].
    Zero for constant samples (and for a single sample). *)
val mad : float array -> float
