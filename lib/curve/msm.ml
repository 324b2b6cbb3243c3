(** Multi-scalar multiplication via Pippenger's bucket method — the
    dominant cost of the Groth16 prover, so the benchmarked CRPC/PSQ
    variable-count reductions translate directly into fewer bucket
    additions here.

    The windows are planned from the scalars themselves: witness and
    quotient scalars are rarely full width (a Spartan row commitment's
    are a few bits, Groth16's [msm_l] mixes a dozen full-width scalars
    with ~11-bit ones), and a window above a scalar's top bit costs it
    nothing.

    Digits are signed (Booth-recoded), so a c-bit window keeps 2^(c−1)
    buckets and a negative digit adds the negated base. Bases are best
    given affine (see [Weierstrass.Make.normalize]): a bucket addition
    with an affine base takes the mixed formula. *)

module Bigint = Zkvc_num.Bigint
module Fr = Zkvc_field.Fr
module Metrics = Zkvc_obs.Metrics
module Parallel = Zkvc_parallel

(* Shared across group instantiations (G1, G2): how many MSMs ran, their
   input sizes and the width of every Pippenger window planned for them. *)
let msm_calls = Metrics.counter "msm.calls"
let msm_size = Metrics.histogram "msm.size"
let msm_window = Metrics.histogram "msm.window_bits"

module type Group = sig
  type t

  val zero : t
  val add : t -> t -> t
  val double : t -> t
  val neg : t -> t
end

(* Widest window the planner considers: 2^15 buckets per window. *)
let max_window = 16

type plan =
  { order : int array; (* point indices, longest scalar first *)
    live : int array; (* live.(lo) = number of scalars a window at bit lo reaches *)
    windows : (int * int) array (* (lo, c): bits [lo, lo + c), lo ascending *) }

(* Signed (Booth-recoded) digit of window [lo, lo + c):
   d = bits[lo, lo + c) + bit(lo − 1) − 2^c·bit(lo + c − 1), read as one
   (c + 1)-bit field at lo − 1. The window's top bit is lent to the window
   above as a carry, so −2^(c−1) ≤ d ≤ 2^(c−1) and each window needs
   2^(c−1) buckets, one per |d|. The digits depend on the window's own
   bits alone, and Σ d_w·2^lo_w telescopes back to the scalar when the
   top window's top bit is zero. *)
let digit s ~lo ~c =
  let v =
    if lo = 0 then Bigint.bits s ~pos:0 ~len:c lsl 1
    else Bigint.bits s ~pos:(lo - 1) ~len:(c + 1)
  in
  (v lsr 1) + (v land 1) - ((v lsr c) lsl c)

(* Window [lo, lo + c) costs one bucket addition per scalar it reaches
   (a carry out of bit lo − 1 reaches every scalar of at least lo bits),
   2·2^(c−1) for the running bucket sum and c doublings to join it to the
   window below. The windows tile [0, top + 1): the top window reads the
   zero bit above the longest scalar, so it absorbs the last carry.
   best.(lo) is the cheapest cover of bits [lo, top + 1), found by a DP
   from the top bit down; ties take the narrower window, so the plan is a
   function of the scalars alone. *)
let plan scalars =
  let len =
    Array.map
      (fun s ->
        if Bigint.sign s < 0 then invalid_arg "Msm: negative scalar";
        Bigint.num_bits s)
      scalars
  in
  let top = Array.fold_left Stdlib.max 0 len in
  let count = Array.make (top + 1) 0 in
  Array.iter (fun l -> count.(l) <- count.(l) + 1) len;
  (* longer.(b) = number of scalars longer than b bits *)
  let longer = Array.make (top + 1) 0 in
  for b = top - 1 downto 0 do
    longer.(b) <- longer.(b + 1) + count.(b + 1)
  done;
  (* stable counting sort: the scalars of length l fill
     [longer.(l), longer.(l) + count.(l)) *)
  let next = Array.copy longer and order = Array.make (Array.length scalars) 0 in
  Array.iteri
    (fun i l ->
      order.(next.(l)) <- i;
      next.(l) <- next.(l) + 1)
    len;
  let live = Array.init (top + 1) (fun lo -> longer.(Stdlib.max 0 (lo - 1))) in
  let best = Array.make (top + 2) 0 and width = Array.make (top + 2) 0 in
  for lo = top downto 0 do
    best.(lo) <- max_int;
    for c = 1 to Stdlib.min max_window (top + 1 - lo) do
      let cost = live.(lo) + (2 * (1 lsl (c - 1))) + c + best.(lo + c) in
      if cost < best.(lo) then begin
        best.(lo) <- cost;
        width.(lo) <- c
      end
    done
  done;
  let rec windows lo acc =
    if lo > top then Array.of_list (List.rev acc)
    else windows (lo + width.(lo)) ((lo, width.(lo)) :: acc)
  in
  { order; live; windows = windows 0 [] }

let windows scalars = (plan scalars).windows

module Make (G : Group) = struct
  let msm_bigint points scalars =
    let n = Array.length points in
    if n <> Array.length scalars then invalid_arg "Msm: length mismatch";
    if n = 0 then G.zero
    else begin
      Metrics.incr msm_calls;
      Metrics.observe_int msm_size n;
      let { order; live; windows } = plan scalars in
      Array.iter (fun (_, c) -> Metrics.observe_int msm_window c) windows;
      (* Each window accumulates its buckets independently — the parallel
         axis — over the prefix of [order] whose scalars reach it. The
         doubling ladder that stitches the window sums together stays
         sequential (it is O(top bit) doublings), so the combined result
         is identical for every job count. *)
      let window_sum (lo, c) =
        let buckets = Array.make (1 lsl (c - 1)) G.zero in
        for k = 0 to live.(lo) - 1 do
          let i = order.(k) in
          let d = digit scalars.(i) ~lo ~c in
          if d > 0 then buckets.(d - 1) <- G.add buckets.(d - 1) points.(i)
          else if d < 0 then buckets.(-d - 1) <- G.add buckets.(-d - 1) (G.neg points.(i))
        done;
        (* sum_j j*bucket_j via a running suffix sum *)
        let running = ref G.zero and acc = ref G.zero in
        for j = Array.length buckets - 1 downto 0 do
          running := G.add !running buckets.(j);
          acc := G.add !acc !running
        done;
        !acc
      in
      let nwin = Array.length windows in
      let sums =
        if Parallel.jobs () > 1 && n >= 32 then
          Parallel.parallel_init nwin (fun w -> window_sum windows.(w))
        else Array.map window_sum windows
      in
      (* window w + 1 starts c_w bits above window w, so the running sum
         is doubled c_w times before window w's sum joins it; from the
         top window down, nothing is doubled past the top window *)
      let result = ref G.zero in
      for w = nwin - 1 downto 0 do
        for _ = 1 to snd windows.(w) do
          result := G.double !result
        done;
        result := G.add !result sums.(w)
      done;
      !result
    end

  let msm points scalars =
    (* out-of-Montgomery conversion of the witness is itself a hot linear
       pass; map it on the pool when one is available *)
    let scalars_b =
      if Parallel.jobs () > 1 && Array.length scalars >= 1024 then
        Parallel.parallel_map Fr.to_bigint scalars
      else Array.map Fr.to_bigint scalars
    in
    msm_bigint points scalars_b

  (** Reference implementation for tests: Σ naive scalar muls. *)
  let msm_naive ~mul points scalars =
    let acc = ref G.zero in
    Array.iteri (fun i p -> acc := G.add !acc (mul p scalars.(i))) points;
    !acc
end
