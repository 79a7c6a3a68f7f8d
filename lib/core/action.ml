type t = Information_revelation | Message_passing | Computation | Internal

let to_string = function
  | Information_revelation -> "information-revelation"
  | Message_passing -> "message-passing"
  | Computation -> "computation"
  | Internal -> "internal"

let all_external = [ Information_revelation; Message_passing; Computation ]

let is_external = function
  | Information_revelation | Message_passing | Computation -> true
  | Internal -> false
