(* 32-bit FNV-1a; OCaml's native int is at least 63 bits, so the masked
   multiply never overflows into the sign bit *)
let fnv_offset = 0x811c9dc5

let fnv_prime = 0x01000193

let mask32 = 0xFFFFFFFF

(* top-level recursion: no closure per hashed string *)
let rec fnv1a s i h =
  if i = String.length s then h
  else
    fnv1a s (i + 1)
      ((h lxor Char.code (String.unsafe_get s i)) * fnv_prime land mask32)

let hash_string s = fnv1a s 0 fnv_offset

let shard_of_string ~shards s =
  if shards < 1 then invalid_arg "Partition.shard_of_string: shards < 1";
  hash_string s mod shards

let assign_by ~shards label items =
  if shards < 1 then invalid_arg "Partition.assign_by: shards < 1";
  if shards = 1 then
    (* every hash mod 1 is 0: no label is needed *)
    [| Array.init (Array.length items) Fun.id |]
  else begin
    let counts = Array.make shards 0 in
    let shard =
      Array.map (fun item -> shard_of_string ~shards (label item)) items
    in
    Array.iter (fun s -> counts.(s) <- counts.(s) + 1) shard;
    let slots = Array.map (fun n -> Array.make n 0) counts in
    let filled = Array.make shards 0 in
    Array.iteri
      (fun i s ->
        slots.(s).(filled.(s)) <- i;
        filled.(s) <- filled.(s) + 1)
      shard;
    slots
  end
