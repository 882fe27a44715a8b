type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool; urg : bool }

let flags_none = { syn = false; ack = false; fin = false; rst = false; psh = false; urg = false }
let flags_syn = { flags_none with syn = true }
let flags_ack = { flags_none with ack = true }
let flags_pshack = { flags_none with psh = true; ack = true }

let flags_byte f =
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor (if f.ack then 16 else 0)
  lor if f.urg then 32 else 0
