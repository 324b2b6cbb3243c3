module Sha256 = Zkvc_hash.Sha256
module Bigint = Zkvc_num.Bigint

type t = { mutable state : Bytes.t; mutable counter : int }

(* state' = H(state || tag || (len || "|" || part)* || payload): every
   label part is length-prefixed, so the encoding is prefix-free and
   distinct absorption sequences cannot collide. Multi-part labels keep
   each component separately framed — ("r", 11) and ("r1", 1) hash
   differently, and a user label ending in "/hi" cannot alias the
   internal wide-challenge tag (a separate part). *)
let mix_parts state tag parts payload =
  let ctx = Sha256.init () in
  Sha256.update ctx state;
  Sha256.update_string ctx tag;
  List.iter
    (fun part ->
      Sha256.update_string ctx (string_of_int (String.length part));
      Sha256.update_string ctx "|";
      Sha256.update_string ctx part)
    parts;
  Sha256.update ctx payload;
  Sha256.finalize ctx

let mix state tag label payload = mix_parts state tag [ label ] payload

let create ~label =
  { state = mix (Bytes.make 32 '\000') "init" label Bytes.empty; counter = 0 }

let clone t = { state = Bytes.copy t.state; counter = t.counter }

let absorb_bytes t ~label data = t.state <- mix t.state "absorb" label data

let absorb_string t ~label s = absorb_bytes t ~label (Bytes.of_string s)

let absorb_int t ~label n = absorb_string t ~label (string_of_int n)

let challenge_bytes_parts t parts =
  t.counter <- t.counter + 1;
  let out =
    mix_parts t.state "challenge" parts (Bytes.of_string (string_of_int t.counter))
  in
  t.state <- out;
  out

let challenge_bytes t ~label = challenge_bytes_parts t [ label ]

module Challenge (F : Zkvc_field.Field_intf.S) = struct
  let absorb t ~label x = absorb_bytes t ~label (F.to_bytes x)

  let absorb_list t ~label xs =
    absorb_int t ~label:(label ^ "/len") (List.length xs);
    List.iter (fun x -> absorb t ~label x) xs

  let absorb_array t ~label xs =
    absorb_int t ~label:(label ^ "/len") (Array.length xs);
    Array.iter (fun x -> absorb t ~label x) xs

  (* Big-endian bytes reduced mod F.modulus by Horner's rule over chunks
     of [chunk_bytes] bytes: a chunk is below 2^(bits − 1) < modulus, so
     its canonical decoding is its value, and each step is one
     multiplication by the precomputed 2^(8·chunk_bytes) mod modulus.
     The leading chunk takes the remainder bytes. *)
  let chunk_bytes = (Bigint.num_bits F.modulus - 1) / 8
  let () = assert (chunk_bytes >= 1)
  let chunk_radix = F.of_bigint (Bigint.shift_left Bigint.one (8 * chunk_bytes))

  let of_bytes_wide wide =
    let n = Bytes.length wide in
    let chunk off len =
      let buf = Bytes.make F.size_in_bytes '\000' in
      Bytes.blit wide off buf (F.size_in_bytes - len) len;
      F.of_bytes_exn buf
    in
    let first = n - ((n - 1) / chunk_bytes * chunk_bytes) in
    let acc = ref (if n = 0 then F.zero else chunk 0 first) in
    let off = ref first in
    while !off < n do
      acc := F.add (F.mul !acc chunk_radix) (chunk !off chunk_bytes);
      off := !off + chunk_bytes
    done;
    !acc

  (* 512 bits reduced mod F.modulus; the "hi" half travels as its own
     length-prefixed part, never concatenated onto the caller's label *)
  let challenge_parts t parts =
    let b1 = challenge_bytes_parts t parts in
    let b2 = challenge_bytes_parts t (parts @ [ "hi" ]) in
    of_bytes_wide (Bytes.cat b1 b2)

  let challenge t ~label = challenge_parts t [ label ]

  let challenges t ~label n =
    List.init n (fun i -> challenge_parts t [ label; string_of_int i ])
end
