//===- support/JsonlSink.cpp - Crash-safe JSONL file writer ---------------===//
//
// Part of the practical-dependence-testing project, released under the
// MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/JsonlSink.h"

#include "support/BuildInfo.h"

#include <cerrno>
#include <ctime>
#include <fcntl.h>
#include <unistd.h>

using namespace pdt;

bool JsonlSink::open(const std::string &Path, const char *Schema,
                     const std::string &Fields, bool StampStart) {
  close();
  Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (Fd < 0)
    return false;
  std::string Header = "{\"schema\": \"" + std::string(Schema) + "\"" +
                       Fields + ", \"build\": " + buildInfoJson();
  if (StampStart) {
    char Time[32] = "unknown";
    std::time_t Now = std::time(nullptr);
    if (std::tm *UTC = std::gmtime(&Now))
      std::strftime(Time, sizeof(Time), "%Y-%m-%dT%H:%M:%SZ", UTC);
    Header += ", \"start\": \"" + std::string(Time) + "\"";
  }
  Header += "}\n";
  write(Header);
  return true;
}

void JsonlSink::write(std::string_view Line) {
  size_t Done = 0;
  while (Fd >= 0 && Done < Line.size()) {
    ssize_t N = ::write(Fd, Line.data() + Done, Line.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    Done += static_cast<size_t>(N);
  }
}

void JsonlSink::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}
