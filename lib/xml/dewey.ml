type t = int array

let of_array cs =
  Array.iter
    (fun c ->
      if c < 1 then invalid_arg "Dewey: child ranks are 1-based and positive")
    cs;
  Array.copy cs

let is_ancestor a d =
  let la = Array.length a and ld = Array.length d in
  la < ld
  &&
  let rec loop i = i >= la || (a.(i) = d.(i) && loop (i + 1)) in
  loop 0

let pp ppf d =
  if Array.length d = 0 then Format.pp_print_string ppf "\xce\xb5"
  else
    Array.iteri
      (fun i c ->
        if i > 0 then Format.pp_print_char ppf '.';
        Format.pp_print_int ppf c)
      d

let to_string d = Format.asprintf "%a" pp d
