package fabric

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"fattree/internal/topo"
)

// This file implements the OpenSM-flavoured dump format for programmed
// forwarding tables, in the spirit of "dump_lfts":
//
//	Unicast lids [0x1-0x1c8] of switch Lid 0x145 guid 0xfa55000100000000 (L1:0):
//	0x0001 019 : (host L0:0)
//	...

// WriteLFTs dumps every switch's LID-keyed table.
func (st *SwitchTables) WriteLFTs(w io.Writer) error {
	bw := bufio.NewWriter(w)
	s := st.S
	t := s.T
	ids := make([]topo.NodeID, 0, len(st.Egress))
	for id := range st.Egress {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n := t.Node(id)
		tab := st.Egress[id]
		fmt.Fprintf(bw, "Unicast lids [0x1-0x%x] of switch Lid 0x%x guid 0x%016x (L%d:%d):\n",
			len(tab)-1, s.LIDOf[id], uint64(s.GUIDOf[id]), n.Level, n.Index)
		for lid := 1; lid < len(tab); lid++ {
			if tab[lid] < 0 {
				continue
			}
			dst := t.Node(s.NodeOf[lid])
			fmt.Fprintf(bw, "0x%04x %03d : (%s L%d:%d)\n",
				lid, tab[lid], dst.Kind, dst.Level, dst.Index)
		}
	}
	return bw.Flush()
}
