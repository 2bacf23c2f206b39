type t = { path : string; text : string }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Ok { path; text }
  | exception Sys_error msg -> Error msg

let lines t = String.split_on_char '\n' t.text
