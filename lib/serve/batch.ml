module Fr = Zkvc_field.Fr
module Api = Zkvc.Api
module Groth16 = Zkvc_groth16.Groth16
module Spartan = Zkvc_spartan.Spartan

type path = Batched | Fallback | Per_item

type outcome =
  { verdicts : bool list;
    path : path;
    malformed : int list }

let verify_one keys (io, proof) =
  match Api.verify_with keys ~public_inputs:io proof with
  | ok -> ok
  | exception Invalid_argument _ -> false

let all_true items = List.map (fun _ -> true) items

let verify_each keys items =
  if items = [] then invalid_arg "Batch.verify_each: empty batch";
  let per_item path malformed =
    { verdicts = List.map (verify_one keys) items; path; malformed }
  in
  match keys with
  | Api.Groth16_keys { vk; _ } -> (
    let groth =
      List.filter_map
        (function io, Api.Groth16_proof p -> Some (io, p) | _ -> None)
        items
    in
    match groth with
    | _ :: _ :: _ when List.length groth = List.length items -> (
      match Groth16.verify_batch vk groth with
      | Groth16.Batch_accepted -> { verdicts = all_true items; path = Batched; malformed = [] }
      | Groth16.Batch_rejected ->
        (* one bad apple: fall back to per-item verdicts so honest
           members of the batch still pass *)
        per_item Fallback []
      | Groth16.Batch_malformed bad -> per_item Fallback bad)
    | _ -> per_item Per_item [])
  | Api.Spartan_keys { inst; key } -> (
    let sp =
      List.filter_map
        (function io, Api.Spartan_proof p -> Some (io, p) | _ -> None)
        items
    in
    match sp with
    | _ :: _ :: _ when List.length sp = List.length items -> (
      match Spartan.verify_batch key inst sp with
      | Spartan.Batch_accepted ->
        { verdicts = all_true items; path = Batched; malformed = [] }
      | Spartan.Batch_rejected -> per_item Fallback []
      | Spartan.Batch_malformed bad -> per_item Fallback bad)
    | _ -> per_item Per_item [])
