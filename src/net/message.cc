#include "src/net/message.h"

namespace millipage {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kReadRequest:
      return "READ_REQUEST";
    case MsgType::kWriteRequest:
      return "WRITE_REQUEST";
    case MsgType::kReadReply:
      return "READ_REPLY";
    case MsgType::kWriteReply:
      return "WRITE_REPLY";
    case MsgType::kInvalidateRequest:
      return "INVALIDATE_REQUEST";
    case MsgType::kInvalidateReply:
      return "INVALIDATE_REPLY";
    case MsgType::kAck:
      return "ACK";
    case MsgType::kAllocRequest:
      return "ALLOC_REQUEST";
    case MsgType::kAllocReply:
      return "ALLOC_REPLY";
    case MsgType::kBarrierEnter:
      return "BARRIER_ENTER";
    case MsgType::kBarrierRelease:
      return "BARRIER_RELEASE";
    case MsgType::kLockAcquire:
      return "LOCK_ACQUIRE";
    case MsgType::kLockGrant:
      return "LOCK_GRANT";
    case MsgType::kLockRelease:
      return "LOCK_RELEASE";
    case MsgType::kPushUpdate:
      return "PUSH_UPDATE";
    case MsgType::kDiffUpdate:
      return "DIFF_UPDATE";
    case MsgType::kDiffAck:
      return "DIFF_ACK";
    case MsgType::kShutdown:
      return "SHUTDOWN";
    case MsgType::kEpochBump:
      return "EPOCH_BUMP";
    case MsgType::kSurvey:
      return "SURVEY";
    case MsgType::kSurveyReply:
      return "SURVEY_REPLY";
    case MsgType::kFlushHint:
      return "FLUSH_HINT";
  }
  return "UNKNOWN";
}

}  // namespace millipage
