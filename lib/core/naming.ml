let service_group = "svc"

let content_prefix = "content:"

let content_group unit_id = content_prefix ^ unit_id

(* 64-bit FNV-1a, masked non-negative: the same value at every member,
   on every run and substrate. *)
let fnv_offset = 0x0bf29ce484222325

let fnv_prime = 0x100000001b3

let[@hot] fnv1a s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * fnv_prime
  done;
  !h land max_int

let[@hot] session_group ~shards session_id =
  if shards = 0 then "session:" ^ session_id
  else "sshard:" ^ string_of_int (fnv1a session_id mod shards)

let is_service_group g = String.equal g service_group

let content_unit_of g =
  let n = String.length content_prefix in
  if String.length g > n && String.sub g 0 n = content_prefix then
    Some (String.sub g n (String.length g - n))
  else None
