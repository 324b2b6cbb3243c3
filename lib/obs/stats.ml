(* Robust centre of a small, heavy-tailed timing sample: the median rather
   than the mean, so a single GC pause or preempted rep does not move it. *)

let median xs =
  if Array.length xs = 0 then invalid_arg "Stats.median: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.
