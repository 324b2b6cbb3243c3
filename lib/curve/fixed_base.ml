(** Fixed-base scalar multiplication with a precomputed window table.
    The Groth16 setup performs one scalar multiplication per wire per
    query; with an 8-bit window each costs ~32 group additions instead of
    ~380 double-and-adds. *)

module Bigint = Zkvc_num.Bigint
module Fr = Zkvc_field.Fr

module Make (G : sig
  type t

  val zero : t
  val add : t -> t -> t
  val double : t -> t
end) =
struct
  type table =
    { window : int;
      rows : G.t array array (* rows.(w).(d-1) = (d << (window*w)) · base *) }

  let scalar_bits = 254

  let create ?(window = 8) ?normalize base =
    let nwin = (scalar_bits + window - 1) / window in
    let base_w = ref base in
    let rows =
      Array.init nwin (fun _ ->
          let row = Array.make ((1 lsl window) - 1) G.zero in
          row.(0) <- !base_w;
          for d = 1 to Array.length row - 1 do
            row.(d) <- G.add row.(d - 1) !base_w
          done;
          (* advance base_w by 2^window *)
          for _ = 1 to window do
            base_w := G.double !base_w
          done;
          row)
    in
    Option.iter
      (fun f ->
        (* one call over every row, so one inversion serves the table *)
        let all = Array.concat (Array.to_list rows) in
        f all;
        let row_len = (1 lsl window) - 1 in
        Array.iteri (fun w row -> Array.blit all (w * row_len) row 0 row_len) rows)
      normalize;
    { window; rows }

  let mul_bigint t s =
    if Bigint.sign s < 0 then invalid_arg "Fixed_base.mul: negative scalar";
    if Bigint.num_bits s > scalar_bits then invalid_arg "Fixed_base.mul: scalar too wide";
    let c = t.window in
    let acc = ref G.zero in
    Array.iteri
      (fun w row ->
        let lo = w * c in
        let d = Bigint.bits s ~pos:lo ~len:(Stdlib.min c (scalar_bits - lo)) in
        if d > 0 then acc := G.add !acc row.(d - 1))
      t.rows;
    !acc

  let mul t s = mul_bigint t (Fr.to_bigint s)
end
