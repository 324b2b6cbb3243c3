(* Reference matrix product for the tests: one field multiplication and
   one addition per term, each reduced, as Matmul_spec.multiply computed
   it before the lazily reduced [F.mat_mul] kernel replaced it. *)

module Make (F : Zkvc_field.Field_intf.S) = struct
  let multiply x w =
    let a = Array.length x and n = Array.length w in
    if n = 0 || Array.length x.(0) <> n then invalid_arg "Matmul_oracle.multiply: dims";
    let b = Array.length w.(0) in
    Array.init a (fun i ->
        Array.init b (fun j ->
            let acc = ref F.zero in
            for k = 0 to n - 1 do
              acc := F.add !acc (F.mul x.(i).(k) w.(k).(j))
            done;
            !acc))
end
