open Tl_hw

type config = {
  tmr_controller : bool;
  parity_banks : bool;
}

let none = { tmr_controller = false; parity_banks = false }
let tmr_only = { tmr_controller = true; parity_banks = false }
let parity_only = { tmr_controller = false; parity_banks = true }
let full = { tmr_controller = true; parity_banks = true }

let is_none c = (not c.tmr_controller) && not c.parity_banks

let label c =
  match c.tmr_controller, c.parity_banks with
  | false, false -> "none"
  | true, false -> "tmr"
  | false, true -> "parity"
  | true, true -> "tmr+parity"

type applied = {
  config : config;
  tmr_regs : string list;
  parity_pairs : (Signal.ram * Signal.ram) list;
}

let vote a b c = Signal.(a &: b |: (a &: c) |: (b &: c))

let tmr_reg ~name ?enable ?clear ?clear_to ?init d =
  let copy k =
    Signal.(
      reg ?enable ?clear ?clear_to ?init d
      -- Printf.sprintf "%s_tmr%d" name k)
  in
  vote (copy 0) (copy 1) (copy 2)

let parity_of s =
  let w = Signal.width s in
  let rec go acc i =
    if i >= w then acc else go Signal.(acc ^: Signal.bit s i) (i + 1)
  in
  go (Signal.bit s 0) 1

let parity_bit v =
  let rec go acc v = if v = 0 then acc else go (acc lxor (v land 1)) (v lsr 1) in
  go 0 v
