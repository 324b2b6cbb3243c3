(* Clock, statistics and host-noise diagnostics shared by every workload.
   The diagnostics are reported beside the metrics and never used to
   rescale them: they only show whether a noisy run came from the host. *)

(* monotonic wall clock in seconds (also installed as the span clock) *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let sorted xs = List.sort compare xs

let median = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean after dropping the fastest and the slowest tenth. Under the
   host's slow and fast periods the samples of one run are a mixture of
   two speeds; the median of a run then jumps between them, while this
   mean moves with the mixture (see LAYERS.md). *)
let trimmed_mean = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    let k = n / 10 in
    let kept = Array.sub a k (n - (2 * k)) in
    Array.fold_left ( +. ) 0. kept /. float (Array.length kept)

(* nearest-rank percentile, [p] in (0, 100] *)
let percentile p = function
  | [] -> 0.
  | xs ->
    let a = Array.of_list (sorted xs) in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* A fixed integer loop: its time tracks how fast the host ran this
   process at that moment. *)
let spin_ms () =
  let t0 = now () in
  let acc = ref 0 in
  for i = 1 to 20_000_000 do
    acc := ((!acc * 31) + i) land 0xffffff
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1000.

(* Hypervisor steal ticks summed over all CPUs; 0 when unreadable. *)
let steal_ticks () =
  try
    let ic = open_in "/proc/stat" in
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ -> int_of_string steal
    | _ -> 0
  with _ -> 0

(* VmHWM (peak resident set) of a process, in MiB; 0 when unreadable. *)
let peak_rss_mb pid =
  let file = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  try
    let ic = open_in file in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec scan () =
          let l = input_line ic in
          if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                float kb /. 1024.)
          else scan ()
        in
        scan ())
  with _ -> 0.

type noise = { spin_start_ms : float; steal_start : int }

let noise_start () = { spin_start_ms = spin_ms (); steal_start = steal_ticks () }
