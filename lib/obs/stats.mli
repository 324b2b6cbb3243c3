(** Robust statistics for repeated timing measurements: the bench
    harness's per-measurement medians.

    The median is used instead of the mean because bench samples are few
    (3–10 reps) and heavy-tailed (GC pauses, scheduler preemption): one
    outlier rep must not move the reported centre. *)

(** Median by sorting a copy; the mean of the two middle elements when
    the sample count is even. Raises [Invalid_argument] on an empty
    array. *)
val median : float array -> float
