#ifndef TCF_NET_BINARY_IO_H_
#define TCF_NET_BINARY_IO_H_

#include <iosfwd>
#include <string>

#include "net/database_network.h"
#include "util/status.h"

namespace tcf {

/// \brief Compact binary serialization of database networks.
///
/// Orders of magnitude faster than the text format on large networks;
/// used by warehouse pipelines (generate once, mine/index many times).
/// Little-endian, length-prefixed, versioned:
/// \code
///   magic "TCFB" | u32 version=1
///   u64 num_vertices | u64 num_items
///   per item:  u32 name_len | bytes
///   u64 num_edges | per edge: u32 u, u32 v
///   per vertex: u64 num_tx | per tx: u32 len | u32 items[len]
/// \endcode
Status SaveNetworkBinary(const DatabaseNetwork& net, std::ostream& os);
Status SaveNetworkBinaryToFile(const DatabaseNetwork& net,
                               const std::string& path);

StatusOr<DatabaseNetwork> LoadNetworkBinary(std::istream& is);
StatusOr<DatabaseNetwork> LoadNetworkBinaryFromFile(const std::string& path);

}  // namespace tcf

#endif  // TCF_NET_BINARY_IO_H_
