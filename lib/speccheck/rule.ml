type t = DATA1 | PRINC1 | CHECK1 | BANK1 | PRINC2 | CHECK2 | BANK2 | EXEC

let all = [ DATA1; PRINC1; CHECK1; BANK1; PRINC2; CHECK2; BANK2; EXEC ]

let to_string = function
  | DATA1 -> "DATA1"
  | PRINC1 -> "PRINC1"
  | CHECK1 -> "CHECK1"
  | BANK1 -> "BANK1"
  | PRINC2 -> "PRINC2"
  | CHECK2 -> "CHECK2"
  | BANK2 -> "BANK2"
  | EXEC -> "EXEC"
