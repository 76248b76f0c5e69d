let[@inline] popcount64 x =
  let open Int64 in
  let x = sub x (logand (shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    add (logand x 0x3333333333333333L)
      (logand (shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = logand (add x (shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  to_int (shift_right_logical (mul x 0x0101010101010101L) 56)

let[@inline] lowest_bit x = popcount64 (Int64.pred (Int64.logand x (Int64.neg x)))

let popcount mask =
  if mask < 0 then invalid_arg "Bits.popcount: negative mask"
  else popcount64 (Int64.of_int mask)
