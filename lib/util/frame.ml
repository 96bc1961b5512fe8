(** Checksummed frames for bytes at rest (see the interface). *)

let encode ~magic body =
  Printf.sprintf "%s%08x%s%s" magic (String.length body)
    (Digest.to_hex (Digest.string body))
    body

let read ~magic ic =
  try
    if not (String.equal (really_input_string ic (String.length magic)) magic) then None
    else
      match int_of_string_opt ("0x" ^ really_input_string ic 8) with
      | None -> None
      | Some len ->
        let sum = really_input_string ic 32 in
        if len < 0 || len > in_channel_length ic - pos_in ic then None
        else
          let body = really_input_string ic len in
          if String.equal sum (Digest.to_hex (Digest.string body)) then Some body
          else None
  with End_of_file | Sys_error _ -> None
