type t = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI
type r8 = AL | CL | DL | BL | AH | CH | DH | BH

let code = function
  | EAX -> 0
  | ECX -> 1
  | EDX -> 2
  | EBX -> 3
  | ESP -> 4
  | EBP -> 5
  | ESI -> 6
  | EDI -> 7

let of_code = function
  | 0 -> EAX
  | 1 -> ECX
  | 2 -> EDX
  | 3 -> EBX
  | 4 -> ESP
  | 5 -> EBP
  | 6 -> ESI
  | 7 -> EDI
  | n -> invalid_arg (Printf.sprintf "Reg.of_code: %d" n)

let code8 = function
  | AL -> 0
  | CL -> 1
  | DL -> 2
  | BL -> 3
  | AH -> 4
  | CH -> 5
  | DH -> 6
  | BH -> 7

let name = function
  | EAX -> "eax"
  | ECX -> "ecx"
  | EDX -> "edx"
  | EBX -> "ebx"
  | ESP -> "esp"
  | EBP -> "ebp"
  | ESI -> "esi"
  | EDI -> "edi"

let name8 = function
  | AL -> "al"
  | CL -> "cl"
  | DL -> "dl"
  | BL -> "bl"
  | AH -> "ah"
  | CH -> "ch"
  | DH -> "dh"
  | BH -> "bh"

let all = [| EAX; ECX; EDX; EBX; ESP; EBP; ESI; EDI |]
let all8 = [| AL; CL; DL; BL; AH; CH; DH; BH |]

let low8 = function
  | EAX -> Some AL
  | ECX -> Some CL
  | EDX -> Some DL
  | EBX -> Some BL
  | ESP | EBP | ESI | EDI -> None

let parent8 = function
  | AL | AH -> EAX
  | CL | CH -> ECX
  | DL | DH -> EDX
  | BL | BH -> EBX

let equal (a : t) b = a = b
let pp ppf r = Format.pp_print_string ppf (name r)
let pp8 ppf r = Format.pp_print_string ppf (name8 r)
