(* Named counters / gauges / histograms for prover internals. Instruments
   are interned by name so hot paths can hold the record and bump it;
   every write is guarded by the shared sink flag.

   Domain-safety: counters are atomic (lock-free increments from worker
   domains); gauge and histogram writes take [write_mutex] — they sit on
   per-call paths (one observation per MSM/NTT), never in per-field-op
   loops. Histograms retain at most [reservoir_capacity] samples via
   deterministic reservoir sampling and keep [count]/[sum] exact; the
   sorted view is cached between observations so [percentile] is O(1)
   after the first query. *)

type counter = { c_name : string; value : int Atomic.t }

type gauge = { g_name : string; mutable g_value : float; mutable g_set : bool }

(** Maximum samples a histogram retains; extra observations replace
    retained ones with probability [capacity/count] (reservoir). *)
let reservoir_capacity = 1024

type histogram =
  { h_name : string;
    mutable samples : float array; (* reservoir; first [n_retained] slots live *)
    mutable n_retained : int;
    mutable h_count : int;
    mutable h_sum : float;
    mutable rng : int; (* deterministic LCG state for reservoir replacement *)
    mutable sorted : float array option (* cache, dropped on every observe *) }

let counters : (string, counter) Hashtbl.t = Hashtbl.create 16
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

(* Guards gauge/histogram mutation and instrument interning. *)
let write_mutex = Mutex.create ()

let intern tbl name make =
  Mutex.lock write_mutex;
  let v =
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None ->
      let v = make () in
      Hashtbl.replace tbl name v;
      v
  in
  Mutex.unlock write_mutex;
  v

let counter name = intern counters name (fun () -> { c_name = name; value = Atomic.make 0 })

let gauge name =
  intern gauges name (fun () -> { g_name = name; g_value = 0.; g_set = false })

let histogram name =
  intern histograms name (fun () ->
      { h_name = name;
        samples = [||];
        n_retained = 0;
        h_count = 0;
        h_sum = 0.;
        rng = Hashtbl.hash name;
        sorted = None })

let incr c = if !Sink.enabled then Atomic.incr c.value
let add c n = if !Sink.enabled then ignore (Atomic.fetch_and_add c.value n)
let counter_value c = Atomic.get c.value

let set g v =
  if !Sink.enabled then begin
    Mutex.lock write_mutex;
    g.g_value <- v;
    g.g_set <- true;
    Mutex.unlock write_mutex
  end

let lcg st = ((st * 25214903917) + 11) land 0x3FFFFFFFFFFFF

let observe h v =
  if !Sink.enabled then begin
    Mutex.lock write_mutex;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    h.sorted <- None;
    if h.n_retained < reservoir_capacity then begin
      if Array.length h.samples = h.n_retained then begin
        let cap =
          Stdlib.min reservoir_capacity (Stdlib.max 16 (2 * Array.length h.samples))
        in
        let grown = Array.make cap 0. in
        Array.blit h.samples 0 grown 0 h.n_retained;
        h.samples <- grown
      end;
      h.samples.(h.n_retained) <- v;
      h.n_retained <- h.n_retained + 1
    end
    else begin
      h.rng <- lcg h.rng;
      let slot = h.rng mod h.h_count in
      if slot < reservoir_capacity then h.samples.(slot) <- v
    end;
    Mutex.unlock write_mutex
  end

let observe_int h v = observe h (float_of_int v)

let hist_count h = h.h_count

let hist_sum h = h.h_sum

let hist_retained h = h.n_retained

let sorted_samples h =
  Mutex.lock write_mutex;
  let s =
    match h.sorted with
    | Some s -> s
    | None ->
      let s = Array.sub h.samples 0 h.n_retained in
      Array.sort compare s;
      h.sorted <- Some s;
      s
  in
  Mutex.unlock write_mutex;
  s

(* Nearest-rank percentile over the retained reservoir; [p] in [0, 100].
   Exact while fewer than [reservoir_capacity] samples were observed,
   an unbiased-sample estimate beyond that. *)
let percentile h p =
  if h.h_count = 0 then None
  else begin
    let arr = sorted_samples h in
    let n = Array.length arr in
    let rank =
      int_of_float (ceil (p /. 100. *. float_of_int n))
    in
    let idx = Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)) in
    Some arr.(idx)
  end

let reset () =
  Mutex.lock write_mutex;
  Hashtbl.iter (fun _ c -> Atomic.set c.value 0) counters;
  Hashtbl.iter (fun _ g -> g.g_value <- 0.; g.g_set <- false) gauges;
  Hashtbl.iter
    (fun _ h ->
      h.samples <- [||];
      h.n_retained <- 0;
      h.h_count <- 0;
      h.h_sum <- 0.;
      h.rng <- Hashtbl.hash h.h_name;
      h.sorted <- None)
    histograms;
  Mutex.unlock write_mutex

let sorted_bindings tbl name_of =
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []
  |> List.sort (fun a b -> compare (name_of a) (name_of b))

(* Registry enumeration for exposition renderers (Expose). Iteration
   holds [write_mutex] so a concurrent [intern] can't resize the table
   under the fold; instrument reads afterwards are the usual atomic /
   mutex-guarded accessors. *)
let locked_bindings tbl name_of =
  Mutex.lock write_mutex;
  let l = Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] in
  Mutex.unlock write_mutex;
  List.sort (fun a b -> compare (name_of a) (name_of b)) l

let all_counters () = locked_bindings counters (fun c -> c.c_name)

let all_gauges () =
  locked_bindings gauges (fun g -> g.g_name)
  |> List.filter_map (fun g -> if g.g_set then Some (g.g_name, g.g_value) else None)

let all_histograms () = locked_bindings histograms (fun h -> h.h_name)

let hist_name h = h.h_name

let float_or_zero = function Some v -> v | None -> 0.

let hist_stats h =
  let mn = percentile h 0. and p50 = percentile h 50. in
  let p90 = percentile h 90. and mx = percentile h 100. in
  (float_or_zero mn, float_or_zero p50, float_or_zero p90, float_or_zero mx)

let snapshot () =
  let counters_json =
    sorted_bindings counters (fun c -> c.c_name)
    |> List.filter_map (fun c ->
           let v = counter_value c in
           if v = 0 then None else Some (c.c_name, Json.Int v))
  in
  let gauges_json =
    sorted_bindings gauges (fun g -> g.g_name)
    |> List.filter_map (fun g ->
           if not g.g_set then None else Some (g.g_name, Json.Float g.g_value))
  in
  let hist_json =
    sorted_bindings histograms (fun h -> h.h_name)
    |> List.filter_map (fun h ->
           if h.h_count = 0 then None
           else begin
             let mn, p50, p90, mx = hist_stats h in
             Some
               ( h.h_name,
                 Json.Obj
                   [ ("count", Json.Int h.h_count);
                     ("sum", Json.Float h.h_sum);
                     ("min", Json.Float mn);
                     ("p50", Json.Float p50);
                     ("p90", Json.Float p90);
                     ("max", Json.Float mx) ] )
           end)
  in
  Json.Obj
    [ ("counters", Json.Obj counters_json);
      ("gauges", Json.Obj gauges_json);
      ("histograms", Json.Obj hist_json) ]

let to_string () =
  let b = Buffer.create 256 in
  let nonzero_counters =
    sorted_bindings counters (fun c -> c.c_name)
    |> List.filter (fun c -> counter_value c <> 0)
  in
  if nonzero_counters <> [] then begin
    Buffer.add_string b "counters:\n";
    List.iter
      (fun c ->
        Buffer.add_string b (Printf.sprintf "  %-32s %d\n" c.c_name (counter_value c)))
      nonzero_counters
  end;
  let set_gauges =
    sorted_bindings gauges (fun g -> g.g_name) |> List.filter (fun g -> g.g_set)
  in
  if set_gauges <> [] then begin
    Buffer.add_string b "gauges:\n";
    List.iter
      (fun g -> Buffer.add_string b (Printf.sprintf "  %-32s %g\n" g.g_name g.g_value))
      set_gauges
  end;
  let live_hists =
    sorted_bindings histograms (fun h -> h.h_name)
    |> List.filter (fun h -> h.h_count > 0)
  in
  if live_hists <> [] then begin
    Buffer.add_string b "histograms:\n";
    List.iter
      (fun h ->
        let mn, p50, p90, mx = hist_stats h in
        Buffer.add_string b
          (Printf.sprintf "  %-32s count=%d sum=%g min=%g p50=%g p90=%g max=%g\n"
             h.h_name h.h_count h.h_sum mn p50 p90 mx))
      live_hists
  end;
  Buffer.contents b
