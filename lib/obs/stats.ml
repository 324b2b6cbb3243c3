(* Robust statistics over small, heavy-tailed timing samples: medians and
   MAD rather than mean/stddev so a single GC pause or preempted rep does
   not move the centre or explode the spread. *)

let check name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty sample")

let minimum xs =
  check "minimum" xs;
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  check "maximum" xs;
  Array.fold_left Float.max xs.(0) xs

let median xs =
  check "median" xs;
  let s = Array.copy xs in
  Array.sort Float.compare s;
  let n = Array.length s in
  if n land 1 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let mad xs =
  check "mad" xs;
  let m = median xs in
  median (Array.map (fun x -> Float.abs (x -. m)) xs)
