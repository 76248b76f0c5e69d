type t = Child | Descendant

let select idx axis ~from ~tag =
  match axis with
  | Child -> Index.children idx tag ~parent:from
  | Descendant -> Index.descendants idx tag ~root:from
