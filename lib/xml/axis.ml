type t =
  | Self
  | Child
  | Descendant
  | Descendant_or_self
  | Parent
  | Ancestor
  | Following_sibling

let test doc axis ~from ~target =
  match axis with
  | Self -> from = target
  | Child -> Doc.is_parent doc ~parent:from ~child:target
  | Descendant -> Doc.is_ancestor doc ~anc:from ~desc:target
  | Descendant_or_self -> from = target || Doc.is_ancestor doc ~anc:from ~desc:target
  | Parent -> Doc.is_parent doc ~parent:target ~child:from
  | Ancestor -> Doc.is_ancestor doc ~anc:target ~desc:from
  | Following_sibling ->
      from < target && Option.equal Int.equal (Doc.parent doc from) (Doc.parent doc target)

let select idx axis ~from ~tag =
  let doc = Index.doc idx in
  let has_tag i =
    String.equal tag Index.wildcard || String.equal (Doc.tag doc i) tag
  in
  match axis with
  | Self -> if has_tag from then [ from ] else []
  | Child -> Index.children idx tag ~parent:from
  | Descendant -> Index.descendants idx tag ~root:from
  | Descendant_or_self ->
      let ds = Index.descendants idx tag ~root:from in
      if has_tag from then from :: ds else ds
  | Parent -> (
      match Doc.parent doc from with
      | Some p when has_tag p -> [ p ]
      | Some _ | None -> [])
  | Ancestor ->
      let rec up acc i =
        match Doc.parent doc i with
        | None -> acc
        | Some p -> up (if has_tag p then p :: acc else acc) p
      in
      up [] from
  | Following_sibling -> (
      match Doc.parent doc from with
      | None -> []
      | Some p ->
          List.filter
            (fun c -> c > from && has_tag c)
            (Doc.children doc p))

let to_string = function
  | Self -> "self"
  | Child -> "child"
  | Descendant -> "descendant"
  | Descendant_or_self -> "descendant-or-self"
  | Parent -> "parent"
  | Ancestor -> "ancestor"
  | Following_sibling -> "following-sibling"

let pp ppf a = Format.pp_print_string ppf (to_string a)
let equal (a : t) (b : t) = a = b
