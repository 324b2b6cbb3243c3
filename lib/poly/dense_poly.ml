module Make (F : Zkvc_field.Field_intf.S) = struct
  module D = Domain.Make (F)

  type t = F.t array (* no trailing zeros *)

  let normalize a =
    let n = ref (Array.length a) in
    while !n > 0 && F.is_zero a.(!n - 1) do decr n done;
    if !n = Array.length a then a else Array.sub a 0 !n

  let zero = [||]
  let constant c = normalize [| c |]
  let one = constant F.one

  let of_coeffs a = normalize (Array.copy a)
  let of_list l = normalize (Array.of_list l)
  let coeffs p = Array.copy p
  let coeff p i = if i < Array.length p then p.(i) else F.zero
  let degree p = Array.length p - 1
  let is_zero p = Array.length p = 0
  let equal a b = a = b

  let add a b =
    let la = Array.length a and lb = Array.length b in
    normalize (Array.init (Stdlib.max la lb) (fun i ->
        F.add (if i < la then a.(i) else F.zero) (if i < lb then b.(i) else F.zero)))

  let neg a = Array.map F.neg a

  let sub a b = add a (neg b)

  let scale c a = normalize (Array.map (F.mul c) a)

  let mul_schoolbook a b =
    if is_zero a || is_zero b then zero
    else begin
      let la = Array.length a and lb = Array.length b in
      let r = Array.make (la + lb - 1) F.zero in
      for i = 0 to la - 1 do
        if not (F.is_zero a.(i)) then
          for j = 0 to lb - 1 do
            r.(i + j) <- F.add r.(i + j) (F.mul a.(i) b.(j))
          done
      done;
      normalize r
    end

  let next_pow2 n =
    let rec go p = if p >= n then p else go (2 * p) in
    go 1

  let mul_ntt a b =
    if is_zero a || is_zero b then zero
    else begin
      let out_len = Array.length a + Array.length b - 1 in
      let n = next_pow2 out_len in
      if n > 1 lsl F.two_adicity then
        invalid_arg "Dense_poly.mul_ntt: product exceeds the field's NTT capacity";
      let d = D.create n in
      let pad x = Array.init n (fun i -> if i < Array.length x then x.(i) else F.zero) in
      let fa = pad a and fb = pad b in
      D.ntt d fa;
      D.ntt d fb;
      for i = 0 to n - 1 do
        fa.(i) <- F.mul fa.(i) fb.(i)
      done;
      D.intt d fa;
      normalize (Array.sub fa 0 out_len)
    end

  let ntt_threshold = 64

  let mul a b =
    let out_len = Array.length a + Array.length b - 1 in
    if out_len <= ntt_threshold || next_pow2 out_len > 1 lsl F.two_adicity
    then mul_schoolbook a b
    else mul_ntt a b

  let divmod a b =
    if is_zero b then raise Division_by_zero;
    let db = degree b in
    let lead_inv = F.inv b.(db) in
    let r = Array.copy a in
    let dq = degree a - db in
    if dq < 0 then (zero, normalize r)
    else begin
      let q = Array.make (dq + 1) F.zero in
      for i = dq downto 0 do
        let c = F.mul r.(i + db) lead_inv in
        q.(i) <- c;
        if not (F.is_zero c) then
          for j = 0 to db do
            r.(i + j) <- F.sub r.(i + j) (F.mul c b.(j))
          done
      done;
      (normalize q, normalize r)
    end

  let eval p x =
    let acc = ref F.zero in
    for i = Array.length p - 1 downto 0 do
      acc := F.add (F.mul !acc x) p.(i)
    done;
    !acc

  let interpolate points =
    let pts = Array.of_list points in
    let n = Array.length pts in
    Array.iteri (fun i (xi, _) ->
        Array.iteri (fun j (xj, _) ->
            if i < j && F.equal xi xj then invalid_arg "Dense_poly.interpolate: duplicate x")
          pts)
      pts;
    let acc = ref zero in
    for i = 0 to n - 1 do
      let xi, yi = pts.(i) in
      (* basis_i = prod_{j<>i} (x - x_j)/(x_i - x_j) *)
      let num = ref (constant F.one) and den = ref F.one in
      for j = 0 to n - 1 do
        if j <> i then begin
          let xj, _ = pts.(j) in
          num := mul_schoolbook !num (of_list [ F.neg xj; F.one ]);
          den := F.mul !den (F.sub xi xj)
        end
      done;
      acc := add !acc (scale (F.div yi !den) !num)
    done;
    !acc

  let random st ~degree =
    if degree < 0 then zero
    else begin
      let a = Array.init (degree + 1) (fun _ -> F.random st) in
      (* force the exact requested degree *)
      while F.is_zero a.(degree) do
        a.(degree) <- F.random st
      done;
      a
    end

  let pp fmt p =
    if is_zero p then Format.pp_print_string fmt "0"
    else
      Array.iteri
        (fun i c ->
          if not (F.is_zero c) then begin
            if i > 0 then Format.fprintf fmt " + ";
            Format.fprintf fmt "%a*x^%d" F.pp c i
          end)
        p
end
